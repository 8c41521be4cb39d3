"""Shared machinery of the benchmark's workload process.

Every workload runs in a fresh process started by ``perfbench/run.py``.
This module gives the workloads one clock (:func:`clock`), one way to
time a call (:func:`timed`), the set-up and measurement loops, the
end-to-end metrics and the teardown that leaves no child process alive.
Metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import json
import multiprocessing
import os
import resource
import statistics
import time
import traceback
from dataclasses import dataclass

#: how often set-up is repeated inside one run; ``setup_s`` is the median
SETUP_REPEATS = 3
#: bounded wait for pool workers to exit after ``shutdown_pool()``
CHILD_JOIN_SECONDS = 10.0
#: samples ``tail_ms`` leaves beyond it
TAIL_MIN_BEYOND = 10

clock = time.perf_counter


def timed(fn, *args, **kwargs):
    """Call ``fn`` and return ``(result, seconds)``, timed by :func:`clock`."""
    started = clock()
    result = fn(*args, **kwargs)
    return result, clock() - started


def process_started_at() -> float:
    """:func:`clock` reading taken by ``run.py`` just before it started
    this process (``PERFBENCH_T0``); CLOCK_MONOTONIC is shared by all
    processes on Linux."""
    return float(os.environ["PERFBENCH_T0"])


@functools.cache
def metric_units(section: str) -> dict:
    """``name -> unit`` of the ``BENCHMARK.json`` section (``end_to_end``
    or ``per_layer``), in the file's order."""
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCHMARK.json")
    with open(path) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


def with_units(values: dict, section: str) -> dict:
    """Every metric of ``section`` as ``name -> (value, unit)``; a metric
    missing from ``values`` (a layer the workload never calls) reads 0."""
    return {
        name: (float(values.get(name, 0.0)), unit)
        for name, unit in metric_units(section).items()
    }


class CheckFailed(Exception):
    """A workload's output disagreed with its reference."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def median_setup(setup_once, repeats: int = SETUP_REPEATS) -> float:
    """Run ``setup_once()`` ``repeats`` times; return the median duration.
    Each call must redo the full set-up from scratch."""
    return statistics.median(timed(setup_once)[1] for _ in range(repeats))


def run_ops(op, seconds: float, tracer=None, min_ops: int = 3):
    """Closed loop of sequential ops for ``seconds`` (at least ``min_ops``).

    ``op(tracer)`` runs one op and returns a zero-argument check that
    raises :class:`CheckFailed`; the check runs outside the timed
    region.  With a ``tracer`` every other op is traced (the others get
    ``None``), so a traced run carries its own untraced baseline.
    Returns the samples and the measured wall time (start to the end of
    the last op).
    """
    samples = []
    started = clock()
    while len(samples) < min_ops or clock() - started < seconds:
        traced = tracer is not None and len(samples) % 2 == 1
        if traced:
            tracer.enabled = True
        ok = True
        try:
            verify, latency = timed(op, tracer if traced else None)
        except Exception:  # a failed op is counted, and the run goes on
            traceback.print_exc()
            ok, latency = False, 0.0
        finally:
            if traced:
                tracer.enabled = False
        if ok:
            try:
                verify()
            except CheckFailed as exc:
                print(f"op {len(samples)} check failed: {exc}", flush=True)
                ok = False
        samples.append(Sample(latency, traced, ok))
    return samples, clock() - started


@dataclass(slots=True)
class Sample:
    """One op: its latency in seconds, whether it was traced, and
    whether it succeeded and passed its check."""

    latency: float
    traced: bool
    ok: bool


def tail(latencies: list) -> tuple[float, str]:
    """The highest percentile with at least 10 samples beyond it.

    That percentile is a tail only once it reaches p90 (110 samples or
    more); a shorter run reports its slowest sample instead, and the
    returned label says which.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    index = n - 1 - TAIL_MIN_BEYOND
    if index >= 0.9 * n:
        return ordered[index], f"p{100.0 * (index + 1) / n:.1f} of {n}"
    return ordered[-1], f"max of {n} (too few ops for p90)"


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    """High-water RSS in MB of this process (or its reaped children)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(samples, elapsed: float, setup_s: float) -> dict:
    """The untraced run's end-to-end metrics from its op samples."""
    latencies = [s.latency for s in samples if s.ok]
    if not latencies:
        return {}
    tail_s, basis = tail(latencies)
    print(f"tail_ms basis: {basis}", flush=True)
    if len(latencies) < 100:
        print("op latencies (s): "
              + " ".join(f"{x:.3f}" for x in latencies), flush=True)
    return with_units({
        "setup_s": setup_s,
        "p50_ms": 1e3 * statistics.median(latencies),
        "tail_ms": 1e3 * tail_s,
        "ops_per_s": len(latencies) / elapsed,
        "peak_rss_mb": peak_rss_mb(),
    }, "end_to_end")


def trace_overhead(samples) -> dict:
    """Traced vs untraced median latency of one traced run."""
    traced = [s.latency for s in samples if s.ok and s.traced]
    plain = [s.latency for s in samples if s.ok and not s.traced]
    if not traced or not plain:
        return {}
    p50_traced = 1e3 * statistics.median(traced)
    p50_plain = 1e3 * statistics.median(plain)
    return {
        "trace.p50_traced_ms": p50_traced,
        "trace.p50_untraced_ms": p50_plain,
        "trace.overhead_ratio": p50_traced / p50_plain,
    }


def _running(child) -> bool:
    """Is ``child`` still running?

    The executor's own thread joins its workers too; when it reaps one
    first, ``is_alive()`` can read True for a few milliseconds for a pid
    that no longer exists, so the pid is checked as well.
    """
    if not child.is_alive():
        return False
    try:
        os.kill(child.pid, 0)
    except ProcessLookupError:
        return False
    return True


def stop_children(timeout: float = CHILD_JOIN_SECONDS) -> int:
    """Shut the sweep pool down and join every child process.

    Returns how many children were still alive after the bounded wait;
    those are killed, and the caller counts the run as failed.
    """
    from repro.engine import shutdown_pool

    shutdown_pool()
    deadline = clock() + timeout
    while True:
        left = [c for c in multiprocessing.active_children() if _running(c)]
        if not left or clock() >= deadline:
            break
        left[0].join(min(0.1, max(0.0, deadline - clock())))
    for child in left:
        print(f"child {child.pid} still alive after {timeout} s; killing",
              flush=True)
        child.kill()
        child.join(5.0)
    return len(left)


def emit(samples, metrics: dict, *, extra_failed: int = 0) -> dict:
    """Print the result object as the last line of standard output."""
    failed = sum(1 for s in samples if not s.ok) + extra_failed
    result = {
        "correct": bool(failed == 0 and samples),
        "attempted": len(samples) + extra_failed,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return result


class SequentialWorkload:
    """A workload whose ops run one after another in this thread.

    Subclasses provide ``setup()`` (the complete, repeatable set-up,
    ending with one warm-up op), ``op(tracer)`` (one op; ``tracer`` is
    ``None`` when untraced; returns its check), ``final_check()`` and
    ``layer_metrics(tracer, samples)``; see :func:`run_workload`.
    """

    def measure(self, seconds: float, tracer):
        return run_ops(self.op, seconds, tracer)

    def close(self) -> None:
        pass


def traced_ops(samples) -> tuple[int, float]:
    """Number and total latency in ms of the traced ops that succeeded."""
    traced = [s for s in samples if s.ok and s.traced]
    return len(traced), 1e3 * sum(s.latency for s in traced)


def run_workload(workload, *, seconds: float, trace: bool,
                 started_at: float) -> dict:
    """Drive one workload: set-up, timed ops, checks, teardown.

    ``workload`` provides ``setup()`` (repeated :data:`SETUP_REPEATS`
    times; ``setup_s`` is the import time plus the median),
    ``measure(seconds, tracer)`` (the timed ops; returns the samples and
    the measured wall time), ``final_check()`` (once per run, outside the
    timed ops; returns bool and may mark samples failed),
    ``layer_metrics(tracer, samples)`` (traced runs) and ``close()``
    (runs on every path, before the pool is shut down).
    """
    from tracing import Tracer

    import_s = clock() - started_at
    try:
        setup_s = import_s + median_setup(workload.setup)
        tracer = Tracer() if trace else None
        samples, elapsed = workload.measure(seconds, tracer)
        final_ok = workload.final_check()
        if trace:
            values = workload.layer_metrics(tracer, samples)
        else:
            metrics = end_to_end(samples, elapsed, setup_s)
    finally:
        workload.close()
    children_left = stop_children()
    if trace:
        values["engine.pool_children_left"] = children_left
        values["engine.pool_worker_peak_rss_mb"] = peak_rss_mb(
            resource.RUSAGE_CHILDREN
        )
        values.update(trace_overhead(samples))
        metrics = with_units(values, "per_layer")
    return emit(
        samples, metrics,
        extra_failed=int(not final_ok) + children_left,
    )
