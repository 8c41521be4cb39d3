"""Batched and parallel frequency sweeps.

Two execution strategies, matched to the two model classes:

* **Compiled models** evaluate as NumPy broadcast sums; the only thing
  to manage is peak memory, so :func:`batched_eval` chunks huge
  frequency grids into fixed-size batches.
* **Exact reference sweeps** (one sparse LU per point) are
  embarrassingly parallel across the grid; :func:`parallel_ac_kernel`
  re-splits the sigma grid over a ``concurrent.futures`` process pool
  (each worker reuses the precomputed CSC pair of
  :func:`repro.simulation.ac.ac_kernel` across its whole chunk) and
  falls back to the serial path for small grids, ``workers <= 1``, or
  any pool failure -- results are bitwise independent of the worker
  count.

The worker count resolves as ``workers`` argument > ``REPRO_WORKERS``
environment variable > 1 (serial), clamped to the CPUs this process
may actually run on (``os.sched_getaffinity`` when available --
container CPU quotas shrink the affinity mask without touching
``os.cpu_count()`` -- else ``os.cpu_count()``); non-integer and
non-positive ``REPRO_WORKERS`` values are ignored with a one-shot
:class:`~repro.errors.NumericalWarning`.

Exact sweeps prefer the process-wide **persistent pool** of
:mod:`repro.engine.pool` (warm workers, shared-memory operand
transport); the ladder below it -- per-call pool, then serial -- is
unchanged, and every tier produces bitwise-identical results.
"""

from __future__ import annotations

import os
import warnings

import numpy as np

from repro.errors import NumericalWarning, SimulationError
from repro.simulation.ac import ac_kernel
from repro.simulation.results import FrequencyResponse

__all__ = [
    "batched_eval",
    "compiled_sweep",
    "parallel_ac_kernel",
    "parallel_ac_sweep",
    "resolve_workers",
]

#: default frequency-batch size for compiled evaluation (bounds the
#: (chunk, n, p*p) broadcast intermediates)
DEFAULT_CHUNK = 4096

#: below this many points per worker, process spawn cost dominates and
#: the sweep runs serially
MIN_POINTS_PER_WORKER = 16


def _cpu_limit() -> int:
    """CPUs this process may actually run on.

    ``os.sched_getaffinity(0)`` reflects container CPU quotas and
    ``taskset`` restrictions that ``os.cpu_count()`` ignores; platforms
    without it (macOS, Windows) fall back to the raw count.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            mask = getaffinity(0)
        except OSError:  # pragma: no cover - exotic platforms
            mask = ()
        if mask:
            return len(mask)
    return os.cpu_count() or 1


def resolve_workers(workers: int | None = None) -> int:
    """``workers`` arg > ``REPRO_WORKERS`` env > 1 (serial).

    The result is clamped to ``[1, cpu limit]`` where the limit honors
    the scheduler affinity mask (:func:`_cpu_limit`): oversubscribing
    the pool beyond the cores the container actually grants only adds
    spawn cost.  A ``REPRO_WORKERS`` value that is non-integer *or*
    non-positive is rejected with the same one-shot
    :class:`NumericalWarning` path and the sweep stays serial.
    """
    limit = _cpu_limit()
    if workers is not None:
        return max(1, min(int(workers), limit))
    env = os.environ.get("REPRO_WORKERS", "").strip()
    if env:
        try:
            value = int(env)
        except ValueError:
            warnings.warn(
                f"ignoring non-integer REPRO_WORKERS={env!r}",
                NumericalWarning,
                stacklevel=2,
            )
        else:
            if value <= 0:
                warnings.warn(
                    f"ignoring non-positive REPRO_WORKERS={env!r}",
                    NumericalWarning,
                    stacklevel=2,
                )
            else:
                return max(1, min(value, limit))
    return 1


# ---------------------------------------------------------------------------
# compiled (batched) path
# ---------------------------------------------------------------------------
def batched_eval(
    evaluate, values: np.ndarray, *, chunk: int = DEFAULT_CHUNK
) -> np.ndarray:
    """Apply ``evaluate`` over ``values`` in fixed-size batches.

    ``chunk`` is clamped to at least 1, and a grid no larger than one
    chunk (including the tiny ``n_points < chunk`` and empty cases)
    evaluates in a single call -- never an empty batch.
    """
    values = np.atleast_1d(np.asarray(values)).ravel()
    chunk = max(1, int(chunk))
    if values.size <= chunk:
        return np.asarray(evaluate(values))
    parts = [
        np.asarray(evaluate(values[lo:lo + chunk]))
        for lo in range(0, values.size, chunk)
    ]
    return np.concatenate(parts, axis=0)


def compiled_sweep(
    compiled,
    s_values: np.ndarray,
    *,
    chunk: int = DEFAULT_CHUNK,
    label: str = "",
) -> FrequencyResponse:
    """Sweep a :class:`~repro.engine.compiled.CompiledModel` over
    ``s_values`` in batches; drop-in comparable with ``ac_sweep``."""
    s_values = np.atleast_1d(np.asarray(s_values)).ravel()
    z = batched_eval(compiled.impedance, s_values, chunk=chunk)
    return FrequencyResponse(
        s=s_values,
        z=z,
        port_names=list(compiled.port_names),
        label=label or f"compiled n={compiled.order}",
    )


# ---------------------------------------------------------------------------
# exact (process-pool) path
# ---------------------------------------------------------------------------
def _ac_chunk(payload):
    """Worker body: serial exact kernel over one sigma chunk.

    Module-level so it pickles under both fork and spawn start methods.
    """
    system, sigma_chunk = payload
    return ac_kernel(system, sigma_chunk)


#: sweep-heavy service sessions hit the pool fallback on every call;
#: the NumericalWarning fires once per process (health events still
#: record every occurrence)
_POOL_FALLBACK_WARNED = False


def _reset_pool_fallback_warning() -> None:
    """Re-arm the one-shot pool-fallback warning (test seam)."""
    global _POOL_FALLBACK_WARNED
    _POOL_FALLBACK_WARNED = False


def _warn_pool_fallback_once(exc: Exception) -> None:
    global _POOL_FALLBACK_WARNED
    if _POOL_FALLBACK_WARNED:
        return
    _POOL_FALLBACK_WARNED = True
    warnings.warn(
        f"process-pool sweep unavailable ({type(exc).__name__}: {exc}); "
        "falling back to serial evaluation "
        "(further occurrences warn only via health events)",
        NumericalWarning,
        stacklevel=3,
    )


def _per_call_pool_kernel(system, chunks, n_workers: int):
    """One-shot ``ProcessPoolExecutor`` sweep (the pre-pool baseline).

    Kept as the middle rung of the ladder -- and as the cold-cost
    baseline that ``benchmarks/bench_pool.py`` measures the persistent
    pool against.
    """
    import concurrent.futures as futures

    with futures.ProcessPoolExecutor(max_workers=n_workers) as pool:
        return list(
            pool.map(_ac_chunk, [(system, chunk) for chunk in chunks])
        )


def parallel_ac_kernel(
    system,
    sigma_values: np.ndarray,
    *,
    workers: int | None = None,
    min_points_per_worker: int = MIN_POINTS_PER_WORKER,
    monitor=None,
) -> np.ndarray:
    """Exact kernel sweep fanned out over a process pool.

    The sigma grid is re-split into one contiguous chunk per worker;
    each worker reuses the precomputed aligned CSC pair across its
    whole chunk and factors one sparse LU per point.  Small grids,
    ``workers <= 1``, and pool bring-up failures (sandboxes without
    fork/spawn) all take the serial path, so results never depend on
    the environment.

    The ladder is: **persistent pool** (:mod:`repro.engine.pool`, warm
    workers + shared-memory operands) -> **per-call pool** (fresh
    ``ProcessPoolExecutor``) -> **serial**.  A persistent-pool failure
    records an ``engine.pool`` event and drops one rung; a per-call
    failure records an ``engine.sweep`` event (so :meth:`Engine.stats`
    reflects pool failures) plus a one-shot-per-process
    :class:`NumericalWarning`.  Genuine worker errors --
    :class:`SimulationError` (a singular point) and :class:`MemoryError`
    (the grid does not fit) -- are re-raised instead of silently
    retrying the whole grid serially.
    """
    sigma_values = np.atleast_1d(np.asarray(sigma_values)).ravel()
    n_workers = resolve_workers(workers)
    # clamp the heuristic so tiny sweeps stay serial and the pool never
    # receives an empty chunk (size // min_points is 0 for n < min, and
    # a non-positive min_points_per_worker would divide by zero)
    min_points_per_worker = max(1, int(min_points_per_worker))
    n_workers = min(n_workers, max(1, sigma_values.size // min_points_per_worker))
    if n_workers <= 1:
        return ac_kernel(system, sigma_values)

    from repro.engine import pool as engine_pool

    if engine_pool.pool_enabled():
        try:
            return engine_pool.get_pool().eval(
                system, sigma_values, workers=n_workers, monitor=monitor
            )
        except (SimulationError, MemoryError):
            raise
        except Exception as exc:  # persistent tier down: drop one rung
            if monitor is not None:
                monitor.record(
                    "engine.pool",
                    action="tier-fallback",
                    error_class=type(exc).__name__,
                    error=str(exc),
                    workers=n_workers,
                    points=int(sigma_values.size),
                )

    chunks = np.array_split(sigma_values, n_workers)
    try:
        parts = _per_call_pool_kernel(system, chunks, n_workers)
    except SimulationError:
        raise  # a singular point is a real error, not a pool failure
    except MemoryError:
        raise  # a worker OOM would only repeat (worse) serially
    except Exception as exc:  # pool bring-up / pickling / sandbox limits
        if monitor is not None:
            monitor.record(
                "engine.sweep",
                stage="pool-fallback",
                error_class=type(exc).__name__,
                error=str(exc),
                workers=n_workers,
                points=int(sigma_values.size),
            )
        _warn_pool_fallback_once(exc)
        return ac_kernel(system, sigma_values)
    return np.concatenate(parts, axis=0)


def parallel_ac_sweep(
    system,
    s_values: np.ndarray,
    *,
    workers: int | None = None,
    label: str = "exact",
    monitor=None,
) -> FrequencyResponse:
    """Exact physical impedance sweep with optional process-pool fan-out
    (the parallel counterpart of :func:`repro.simulation.ac.ac_sweep`)."""
    s_values = np.atleast_1d(np.asarray(s_values)).ravel()
    kernel = parallel_ac_kernel(
        system, system.transfer.sigma(s_values), workers=workers,
        monitor=monitor,
    )
    pref = np.atleast_1d(np.asarray(system.transfer.prefactor(s_values)))
    if pref.size == 1:
        pref = np.full(s_values.size, pref.ravel()[0])
    z = kernel * pref[:, None, None]
    return FrequencyResponse(
        s=s_values, z=z, port_names=list(system.port_names), label=label
    )
