"""Benchmark entry point.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload reduce-grid --seed 1 --seconds 20 --trace 0

Workloads: ``reduce-grid``, ``paper-pipeline``, ``serve-hot`` (see
``perfbench/README.md``).  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

Each run starts one fresh workload process (``perfbench/worker.py``)
with the BLAS and OpenMP thread pools pinned to one thread and the
package imported from ``src/``.  The run has a hard time limit; when the
workload process ends, every process it left behind is waited for,
killed after a bounded wait and reaped, and a run that left any counts
as failed.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
#: the whole run, set-up and teardown included, ends within this
HARD_TIMEOUT = 170.0
#: bounded wait for leftover descendants before they are killed
REAP_SECONDS = 10.0
#: thread-pool pinning applied to every workload process
PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Adopt orphaned descendants, so they can be waited for and reaped."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        prctl = libc.prctl
    except (OSError, AttributeError):
        return  # not Linux: orphans go to init, which reaps them
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                      ctypes.c_ulong, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def group_alive(pgid: int) -> bool:
    """Reap finished orphans, then report whether ``pgid`` has members."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            break
        if pid == 0:
            break
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - pgid reused by another user
        return False
    return True


def end_group(pgid: int, wait: float) -> int:
    """Wait up to ``wait`` s for the group to end, then kill what is left.

    Returns 1 when anything had to be killed, else 0.
    """
    deadline = time.monotonic() + wait
    while group_alive(pgid):
        if time.monotonic() >= deadline:
            break
        time.sleep(0.05)
    else:
        return 0
    print(f"run.py: processes of group {pgid} still alive after {wait:.0f} s;"
          " killing them", file=sys.stderr)
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    deadline = time.monotonic() + 5.0
    while group_alive(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)
    return 1


def parse_result(stdout: str):
    for line in reversed(stdout.strip().splitlines()):
        try:
            result = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(result, dict) and "correct" in result:
            return result
    return None


def parse_args(argv=None) -> argparse.Namespace:
    """The arguments of a run; ``worker.py`` parses the same ones."""
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True,
                        choices=("reduce-grid", "paper-pipeline", "serve-hot"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be in [1, 60]")
    return args


def main(argv=None) -> int:
    started = time.monotonic()
    if argv is None:
        argv = sys.argv[1:]
    parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"run.py: no package source at {src}/repro; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2

    become_subreaper()
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = src
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    command = [sys.executable, os.path.join(HERE, "worker.py"), *argv]
    env["PERFBENCH_T0"] = repr(time.perf_counter())
    proc = subprocess.Popen(
        command, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    budget = HARD_TIMEOUT - REAP_SECONDS - (time.monotonic() - started)
    try:
        stdout, _ = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, _ = proc.communicate()
        end_group(proc.pid, 0.0)
        sys.stderr.write(stdout)
        print(f"run.py: workload exceeded {budget:.0f} s; killed",
              file=sys.stderr)
        return 3
    stragglers = end_group(proc.pid, REAP_SECONDS)

    result = parse_result(stdout)
    if proc.returncode != 0 or result is None:
        sys.stderr.write(stdout)
        print(f"run.py: workload exited {proc.returncode} without a result",
              file=sys.stderr)
        return proc.returncode or 4
    for line in stdout.strip().splitlines()[:-1]:
        print(line)
    if stragglers:
        result["correct"] = False
        result["attempted"] += stragglers
        result["failed"] += stragglers
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
