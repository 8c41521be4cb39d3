"""repro.engine: the compiled macromodel evaluation (inference) layer.

The reduction drivers in :mod:`repro.core` are the *training* side of
the library: expensive, run once per netlist.  This package is the
*serving* side -- everything needed to answer many evaluation queries
against few reductions at hardware speed:

* :mod:`repro.engine.compiled` -- one-time pole-residue compilation of
  a reduced model; batch evaluation with zero linear solves.
* :mod:`repro.engine.cache` -- content-addressed (SHA-256 of the MNA
  matrices + reduction options) LRU + disk cache of reductions.
* :mod:`repro.engine.sweep` -- chunked batched sweeps for compiled
  models and process-pool fan-out for exact reference sweeps.
* :mod:`repro.engine.pool` -- the process-wide persistent sweep pool
  (warm workers, shared-memory operand transport, ``REPRO_POOL_*``).
* :mod:`repro.engine.session` -- the :class:`Engine` facade with
  per-session metrics.

See ``docs/ENGINE.md`` for the architecture and tuning notes.
"""

from repro.engine.cache import (
    CacheStats,
    ReductionCache,
    default_cache_dir,
    fingerprint_system,
    reduction_key,
)
from repro.engine.compiled import CompiledModel, compile_model
from repro.engine.pool import (
    PoolConfig,
    SweepPool,
    configure_pool,
    get_pool,
    pool_enabled,
    pool_stats,
    shutdown_pool,
)
from repro.engine.session import Engine, EngineStats
from repro.engine.sweep import (
    batched_eval,
    compiled_sweep,
    parallel_ac_kernel,
    parallel_ac_sweep,
    resolve_workers,
)

__all__ = [
    "Engine",
    "EngineStats",
    "CompiledModel",
    "compile_model",
    "ReductionCache",
    "CacheStats",
    "fingerprint_system",
    "reduction_key",
    "default_cache_dir",
    "batched_eval",
    "compiled_sweep",
    "parallel_ac_kernel",
    "parallel_ac_sweep",
    "resolve_workers",
    "PoolConfig",
    "SweepPool",
    "configure_pool",
    "get_pool",
    "pool_enabled",
    "pool_stats",
    "shutdown_pool",
]
