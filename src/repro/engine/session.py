"""The serving layer: a session object tying cache, compiler, and
sweep executors together.

An :class:`Engine` is the inference-side counterpart of the reduction
("training") drivers in :mod:`repro.core`:

>>> from repro.engine import Engine
>>> eng = Engine()                      # in-memory cache, serial
>>> model = eng.reduce(system, order=40)       # cached by content hash
>>> response = eng.sweep(model, 1j * omega)    # compiled, batched
>>> exact = eng.sweep(system, 1j * omega)      # parallel exact sweep
>>> eng.stats()["solves_avoided"]

Every expensive step -- reduction, compilation, exact factorization --
happens at most once per distinct input; repeated queries hit the
content-addressed cache or the compiled pole-residue form.  Per-session
metrics (cache hits, compilations, linear solves avoided, wall times)
are exposed by :meth:`Engine.stats` and the ``repro sweep
--stats-json`` CLI.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.engine.cache import ReductionCache, fitting_key, reduction_key
from repro.engine.compiled import CompiledModel
from repro.engine.sweep import (
    DEFAULT_CHUNK,
    compiled_sweep,
    parallel_ac_sweep,
    resolve_workers,
)
from repro.errors import ReductionError
from repro.simulation.results import FrequencyResponse

__all__ = ["Engine", "EngineStats"]

_REDUCERS = ("sympvl", "sypvl", "arnoldi")


@dataclass
class EngineStats:
    """Aggregated per-session counters (see :meth:`Engine.stats`)."""

    reductions: int = 0
    fits: int = 0
    compilations: int = 0
    compile_fallbacks: int = 0
    compiled_points: int = 0
    exact_points: int = 0
    solves_avoided: int = 0
    sweeps: int = 0
    transients: int = 0
    wall: dict = field(default_factory=lambda: {
        "reduce": 0.0, "fit": 0.0, "compile": 0.0, "sweep": 0.0,
        "transient": 0.0,
    })

    def to_dict(self) -> dict:
        return {
            "reductions": self.reductions,
            "fits": self.fits,
            "compilations": self.compilations,
            "compile_fallbacks": self.compile_fallbacks,
            "compiled_points": self.compiled_points,
            "exact_points": self.exact_points,
            "solves_avoided": self.solves_avoided,
            "sweeps": self.sweeps,
            "transients": self.transients,
            "wall_seconds": {k: round(v, 6) for k, v in self.wall.items()},
        }


class Engine:
    """Cache-aware, compile-once macromodel evaluation session.

    Parameters
    ----------
    cache:
        An existing :class:`ReductionCache` to share between engines;
        built from ``cache_dir`` / ``cache_entries`` when omitted.
    cache_dir:
        Enables the persistent disk layer (see
        :func:`repro.engine.cache.default_cache_dir`).
    workers:
        Default process-pool width for exact sweeps (``None`` defers to
        ``REPRO_WORKERS``, then serial).
    monitor:
        A :class:`~repro.robustness.health.HealthMonitor`; compilation
        fallbacks and cache activity are recorded as ``engine.*``
        events.
    version:
        Override the package version folded into cache keys (test
        seam for invalidation-on-upgrade).
    """

    def __init__(
        self,
        *,
        cache: ReductionCache | None = None,
        cache_dir=None,
        cache_entries: int = 64,
        cache_max_bytes: int | None = None,
        cache_ttl: float | None = None,
        workers: int | None = None,
        monitor=None,
        version: str | None = None,
    ) -> None:
        if cache is not None and cache_dir is not None:
            raise ValueError("pass either cache or cache_dir, not both")
        # explicit None check: an *empty* ReductionCache is falsy (len 0)
        self.cache = cache if cache is not None else ReductionCache(
            max_entries=cache_entries, cache_dir=cache_dir,
            max_disk_bytes=cache_max_bytes, ttl_seconds=cache_ttl,
        )
        self.workers = workers
        self.monitor = monitor
        self.version = version
        self.stats_ = EngineStats()
        self._compiled: dict[int, tuple[object, CompiledModel]] = {}

    # ------------------------------------------------------------------
    # reduction (cache-aware)
    # ------------------------------------------------------------------
    def reduce(
        self,
        system,
        order: int,
        *,
        engine: str = "sympvl",
        shift: float | str = "auto",
        use_cache: bool = True,
        **options,
    ):
        """Reduce ``system`` with the named engine, via the cache.

        The cache key is the content address of ``(system, engine,
        order, shift, options)``; a hit skips the reduction entirely.
        """
        if engine not in _REDUCERS:
            raise ReductionError(
                f"unknown reduction engine {engine!r}; "
                f"choose one of {', '.join(_REDUCERS)}"
            )
        started = time.perf_counter()
        key_options = {"shift": shift, **options}
        if engine in ("sympvl", "sypvl"):
            # key on the *effective* factorization backend so an
            # explicit factor_method and an equivalent REPRO_FACTORIZATION
            # override address the same entry -- and an env change never
            # serves a stale backend's model from cache.  "auto" keys
            # exactly like the pre-override layout.
            from repro.linalg.factorization import resolve_factor_method

            resolved = resolve_factor_method(
                key_options.pop("factor_method", None)
            )
            if resolved != "auto":
                key_options["factor_method"] = resolved
        key = reduction_key(
            system,
            engine=engine,
            order=order,
            options=key_options,
            version=self.version,
        )
        if use_cache:
            cached = self.cache.get(key)
            if cached is not None:
                if self.monitor is not None:
                    self.monitor.record(
                        "engine.cache", hit=True, key=key[:16], engine=engine,
                        order=order,
                    )
                self.stats_.wall["reduce"] += time.perf_counter() - started
                return cached
            if self.monitor is not None:
                self.monitor.record(
                    "engine.cache", hit=False, key=key[:16], engine=engine,
                    order=order,
                )
        model = self._run_reducer(system, order, engine, shift, options)
        self.stats_.reductions += 1
        if use_cache:
            self.cache.put(key, model)
        self.stats_.wall["reduce"] += time.perf_counter() - started
        return model

    def _run_reducer(self, system, order, engine, shift, options):
        if engine == "sympvl":
            from repro.core.sympvl import sympvl

            return sympvl(
                system, order, shift=shift, monitor=self.monitor, **options
            )
        if engine == "sypvl":
            from repro.core.sypvl import sypvl

            return sypvl(
                system, order, shift=shift, monitor=self.monitor, **options
            )
        from repro.core.arnoldi import prima

        sigma0 = 0.0 if shift == "auto" else float(shift)
        return prima(system, order, sigma0=sigma0, **options)

    # ------------------------------------------------------------------
    # fitting (cache-aware)
    # ------------------------------------------------------------------
    def fit(
        self,
        data,
        *,
        num_poles: int | None = None,
        enforce_passivity: bool = False,
        use_cache: bool = True,
        domain: str | None = None,
        **options,
    ):
        """Vector-fit a tabulated sweep (a
        :class:`~repro.fitting.TouchstoneData`), via the cache.

        The key is the content address of the table plus every fit
        option, so re-fitting identical data is free; the fitted model
        persists to the disk layer like a reduced model.  With
        ``enforce_passivity`` the fit is post-processed by
        :func:`repro.fitting.enforce_model_passivity` (that choice is
        part of the cache key).
        """
        from repro.fitting import enforce_model_passivity, fit_touchstone

        started = time.perf_counter()
        key_options = {
            "num_poles": num_poles,
            "domain": domain,
            "enforce_passivity": bool(enforce_passivity),
            **options,
        }
        key = fitting_key(data, options=key_options, version=self.version)
        if use_cache:
            cached = self.cache.get(key)
            if cached is not None:
                if self.monitor is not None:
                    self.monitor.record(
                        "engine.cache", hit=True, key=key[:16],
                        engine="vector-fit", order=num_poles,
                    )
                self.stats_.wall["fit"] += time.perf_counter() - started
                return cached
            if self.monitor is not None:
                self.monitor.record(
                    "engine.cache", hit=False, key=key[:16],
                    engine="vector-fit", order=num_poles,
                )
        model = fit_touchstone(
            data,
            domain=domain,
            num_poles=num_poles,
            monitor=self.monitor,
            **options,
        )
        if enforce_passivity:
            model = enforce_model_passivity(model, monitor=self.monitor)
        self.stats_.fits += 1
        if use_cache:
            self.cache.put(key, model)
        self.stats_.wall["fit"] += time.perf_counter() - started
        return model

    # ------------------------------------------------------------------
    # compilation (memoized per model instance)
    # ------------------------------------------------------------------
    def compile(self, model, **options) -> CompiledModel:
        """Pole-residue compile ``model`` (idempotent per instance)."""
        if isinstance(model, CompiledModel):
            return model
        entry = self._compiled.get(id(model))
        if entry is not None and entry[0] is model:
            return entry[1]
        started = time.perf_counter()
        compiled = CompiledModel.compile(
            model, monitor=self.monitor, **options
        )
        self.stats_.compilations += 1
        if not compiled.is_spectral:
            self.stats_.compile_fallbacks += 1
        self.stats_.wall["compile"] += time.perf_counter() - started
        # keep a strong reference to the source so id() stays unique
        self._compiled[id(model)] = (model, compiled)
        return compiled

    # ------------------------------------------------------------------
    # sweeps
    # ------------------------------------------------------------------
    def sweep(
        self,
        target,
        s_values: np.ndarray,
        *,
        workers: int | None = None,
        chunk: int = DEFAULT_CHUNK,
        label: str = "",
    ) -> FrequencyResponse:
        """Frequency sweep of a model *or* an assembled system.

        An :class:`~repro.circuits.mna.MNASystem` (anything with sparse
        ``G``) runs the exact reference path, fanned out over the
        process pool; a reduced model is compiled once and evaluated as
        a batched broadcast sum.
        """
        started = time.perf_counter()
        s_values = np.atleast_1d(np.asarray(s_values)).ravel()
        self.stats_.sweeps += 1
        if hasattr(target, "G") and hasattr(target, "B"):
            response = parallel_ac_sweep(
                target,
                s_values,
                workers=workers if workers is not None else self.workers,
                label=label or "exact",
                monitor=self.monitor,
            )
            self.stats_.exact_points += s_values.size
        else:
            compiled = self.compile(target)
            response = compiled_sweep(
                compiled, s_values, chunk=chunk, label=label
            )
            self.stats_.compiled_points += s_values.size
            if compiled.is_spectral:
                self.stats_.solves_avoided += s_values.size
        self.stats_.wall["sweep"] += time.perf_counter() - started
        return response

    def transient(self, model, drives, t, **kwargs):
        """Time-domain response of a reduced model (eq. 23 DAE)."""
        from repro.simulation.transient import transient_reduced

        started = time.perf_counter()
        result = transient_reduced(model, drives, t, **kwargs)
        self.stats_.transients += 1
        self.stats_.wall["transient"] += time.perf_counter() - started
        return result

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """JSON-ready session metrics (cache + evaluation counters)."""
        from repro.engine import pool as engine_pool

        return {
            **self.stats_.to_dict(),
            "workers": resolve_workers(self.workers),
            "cache": self.cache.describe(),
            "pool": engine_pool.describe(),
        }
