"""Docs lint: catch documentation rot before it merges.

Three checks over ``README.md`` and ``docs/*.md``:

1. **Intra-repo markdown links resolve.**  Every ``[text](target)``
   whose target is a relative path (no scheme, no ``#``-only anchor)
   must exist on disk, resolved against the linking file's directory.
   Anchors are stripped before the existence check; external URLs
   (``http://``, ``https://``, ``mailto:``) are ignored.
2. **Documented CLI subcommands exist.**  Every ``repro <word>`` or
   ``python -m repro <word>`` mention inside inline code spans or
   fenced code blocks must name a real subcommand of
   :func:`repro.cli.build_parser` -- so docs cannot advertise commands
   the CLI no longer ships (prose mentions of "the repro package" are
   not scanned).
3. **Documented CLI flags exist.**  Every ``--flag`` that follows such a
   mention on the same command line (up to a comment, pipe, ``;`` or
   redirect; backslash continuations join lines) must be an option the
   subcommand's parser accepts -- nested subcommands such as
   ``repro touchstone export`` included -- so a removed flag cannot
   linger in the docs.

Exit status is the number of problems found (0 = clean), so CI fails
the build on any rot.  ``--root`` points at an alternate repo root
(the self-test fixture in ``tests/test_docs_lint.py`` uses this).

Usage::

    python scripts/check_docs.py [--root PATH]
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

#: [text](target) -- ignores images' leading ! by matching the bracket pair
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
#: fenced code blocks and inline code spans (scanned for subcommands)
_FENCE = re.compile(r"```.*?```", re.DOTALL)
_SPAN = re.compile(r"`[^`\n]+`")
#: `repro <sub>` / `python -m repro <sub>` inside code text; same-line
#: whitespace only (so python snippets like `import repro\nnet = ...`
#: don't match across lines) and not a `from repro import ...`
_SUBCOMMAND = re.compile(
    r"(?<!from )(?:python[ \t]+-m[ \t]+)?\brepro[ \t]+([a-z][a-z0-9-]*)"
    r"(?=([^\n]*))"
)
#: where a documented command line ends (comment, pipe, `;`, redirect,
#: `&&`, the closing backtick of a span, or the next `repro` mention)
_COMMAND_END = re.compile(r"[#|;>`]|&&|\brepro[ \t]")
_FLAG = re.compile(r"(?<![\w-])--([a-z][a-z0-9-]*)")


def _doc_files(root: pathlib.Path) -> list[pathlib.Path]:
    files = []
    readme = root / "README.md"
    if readme.exists():
        files.append(readme)
    docs = root / "docs"
    if docs.is_dir():
        files.extend(sorted(docs.glob("*.md")))
    return files


def check_links(root: pathlib.Path) -> list[str]:
    problems = []
    for path in _doc_files(root):
        text = path.read_text()
        for match in _LINK.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            plain = target.split("#", 1)[0]
            if not plain:
                continue
            resolved = (path.parent / plain).resolve()
            if not resolved.exists():
                problems.append(
                    f"{path.relative_to(root)}: broken link -> {target}"
                )
    return problems


def _parser_node(parser) -> tuple[set[str], dict]:
    """``(option strings, {subcommand: node})`` of an argparse parser."""
    options, children = set(), {}
    for action in parser._actions:
        options.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            children = {
                name: _parser_node(sub) for name, sub in action.choices.items()
            }
    return options, children


def cli_tree(root: pathlib.Path) -> tuple[set[str], dict] | None:
    """The real CLI as a parser tree, read from cli.py.

    Prefers the linted root's own ``src`` tree; a fixture root without
    one (the self-test) falls back to the repo this script ships with,
    so its docs are still checked against a real CLI.
    """
    own_root = pathlib.Path(__file__).resolve().parent.parent
    inserted = []
    for candidate in (root / "src", own_root / "src"):
        if candidate.is_dir() and str(candidate) not in sys.path:
            sys.path.insert(0, str(candidate))
            inserted.append(str(candidate))
    try:
        try:
            from repro.cli import build_parser
        except ImportError:
            return None
        return _parser_node(build_parser())
    finally:
        for path in inserted:
            sys.path.remove(path)


def cli_subcommands(root: pathlib.Path) -> set[str]:
    """The real subcommand set (empty when no CLI can be loaded)."""
    tree = cli_tree(root)
    return set(tree[1]) if tree else set()


def _code_text(text: str) -> str:
    """Fenced blocks (continuations joined) and inline spans, one per line."""
    fences = [m.group(0) for m in _FENCE.finditer(text)]
    spans = [m.group(0) for m in _SPAN.finditer(_FENCE.sub("", text))]
    return "\n".join(fences + spans).replace("\\\n", " ")


def _unknown_flags(node, sub: str, rest: str) -> tuple[str, list[str]]:
    """Walk ``rest`` down nested subcommands from ``sub``; return the
    command path and the flags none of its parsers accept."""
    rest = _COMMAND_END.split(rest, 1)[0]
    command = [sub]
    options, children = node
    for word in rest.split():
        if word in children:
            command.append(word)
            child_options, children = children[word]
            options = options | child_options
    unknown = [
        flag for flag in _FLAG.findall(rest) if f"--{flag}" not in options
    ]
    return " ".join(command), unknown


def check_subcommands(root: pathlib.Path, tree) -> list[str]:
    if not tree:  # no CLI in this tree (fixture runs): nothing to check
        return []
    known = tree[1]
    problems = []
    for path in _doc_files(root):
        name = path.relative_to(root)
        for match in _SUBCOMMAND.finditer(_code_text(path.read_text())):
            sub, rest = match.group(1), match.group(2)
            if sub not in known:
                problems.append(
                    f"{name}: unknown subcommand 'repro {sub}' "
                    f"(cli.py has: {', '.join(sorted(known))})"
                )
                continue
            command, unknown = _unknown_flags(known[sub], sub, rest)
            problems.extend(
                f"{name}: 'repro {command}' has no option '--{flag}'"
                for flag in unknown
            )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--root", type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent,
        help="repo root to lint (default: this repo)",
    )
    args = parser.parse_args(argv)
    root = args.root.resolve()

    problems = check_links(root)
    problems += check_subcommands(root, cli_tree(root))
    for problem in problems:
        print(f"docs-lint: {problem}", file=sys.stderr)
    if not problems:
        files = len(_doc_files(root))
        print(f"docs-lint: {files} markdown file(s) clean")
    return len(problems)


if __name__ == "__main__":
    sys.exit(main())
