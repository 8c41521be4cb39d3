"""Self-test for the docs lint (``scripts/check_docs.py``).

The CI job runs the lint over the real repo; this suite proves the
lint itself works -- that a clean tree passes and, critically, that a
deliberately planted broken link, a phantom subcommand and a stale flag
are caught (a lint that can't fail is no lint at all).
"""

from __future__ import annotations

import importlib.util
import pathlib
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = REPO_ROOT / "scripts" / "check_docs.py"


@pytest.fixture(scope="module")
def lint():
    spec = importlib.util.spec_from_file_location("check_docs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRealRepo:
    def test_repo_docs_are_clean(self, lint, capsys):
        assert lint.main(["--root", str(REPO_ROOT)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_repo_has_docs_to_lint(self, lint):
        files = lint._doc_files(REPO_ROOT)
        names = {p.name for p in files}
        assert "README.md" in names
        assert "ARCHITECTURE.md" in names
        assert "SCALING.md" in names

    def test_cli_subcommands_discovered(self, lint):
        subs = lint.cli_subcommands(REPO_ROOT)
        assert {"reduce", "sweep", "serve", "cache", "fit"} <= subs


class TestFixtureTrees:
    def test_clean_fixture_passes(self, lint, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "GUIDE.md").write_text("# guide\n")
        (tmp_path / "README.md").write_text(
            "See [the guide](docs/GUIDE.md), an [external]"
            "(https://example.com/x) link, and an [anchor](#section).\n"
            "```\nrepro sweep in.sp --order 8 --band 1e8 1e10\n```\n"
        )
        assert lint.main(["--root", str(tmp_path)]) == 0

    def test_planted_broken_link_is_caught(self, lint, tmp_path, capsys):
        (tmp_path / "README.md").write_text(
            "Read [the missing page](docs/DOES_NOT_EXIST.md).\n"
        )
        assert lint.main(["--root", str(tmp_path)]) == 1
        assert "broken link" in capsys.readouterr().err

    def test_phantom_subcommand_is_caught(self, lint, tmp_path, capsys):
        (tmp_path / "README.md").write_text(
            "```\nrepro frobnicate in.sp\n```\n"
        )
        assert lint.main(["--root", str(tmp_path)]) == 1
        assert "frobnicate" in capsys.readouterr().err

    def test_stale_flag_is_caught(self, lint, tmp_path, capsys):
        (tmp_path / "README.md").write_text(
            "```\nrepro sweep in.sp --order 8 --band 1e8 1e10 \\\n"
            "    --backend numpy  # a flag the CLI no longer has\n```\n"
            "and `repro serve --dtype float32` in a span.\n"
        )
        assert lint.main(["--root", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "'repro sweep' has no option '--backend'" in err
        assert "'repro serve' has no option '--dtype'" in err

    def test_nested_subcommand_flags_pass(self, lint, tmp_path, capsys):
        (tmp_path / "README.md").write_text(
            "```\nrepro touchstone export line.sp line.s2p \\\n"
            "    --band 1e7 1e10 --points 80 --parameter Z\n```\n"
            "`repro touchstone export --bogus` is not an option.\n"
        )
        assert lint.main(["--root", str(tmp_path)]) == 1
        assert (
            "'repro touchstone export' has no option '--bogus'"
            in capsys.readouterr().err
        )

    def test_exit_status_counts_problems(self, lint, tmp_path):
        (tmp_path / "README.md").write_text(
            "[a](gone-a.md) and [b](gone-b.md)\n"
            "`repro frobnicate`\n"
        )
        assert lint.main(["--root", str(tmp_path)]) == 3

    def test_anchors_in_targets_are_stripped(self, lint, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "A.md").write_text("# a\n## section\n")
        (tmp_path / "README.md").write_text("[a](docs/A.md#section)\n")
        assert lint.main(["--root", str(tmp_path)]) == 0

    def test_prose_mentions_are_not_subcommands(self, lint, tmp_path):
        # only code spans / fences are scanned; prose and python
        # imports must not trip the subcommand check
        (tmp_path / "README.md").write_text(
            "the repro package reduces circuits.\n"
            "```python\nimport repro\n\nnet = repro.rc_ladder(5)\n"
            "from repro import sympvl\n```\n"
        )
        assert lint.main(["--root", str(tmp_path)]) == 0
