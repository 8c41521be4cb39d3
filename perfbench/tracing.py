"""Outside-in tracing: spans around calls into the package's layers.

Nothing here reaches inside ``src/``.  Every span wraps a call the
benchmark makes into a layer's public interface, or a public seam that
layer offers for this (``sympvl(factor_fn=..., operator_wrapper=...)``),
or a method of an object the benchmark owns (its ``Engine``).  Spans
only record while :attr:`Tracer.enabled` is set, so one traced run can
alternate traced and untraced ops and report its own overhead.

Layers are the package's modules: ``circuits``, ``linalg``, ``core``,
``engine``, ``simulation``, ``synthesis`` and ``service``.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from contextlib import contextmanager

from harness import clock

class Tracer:
    """Thread-safe accumulator of span seconds and event counts."""

    def __init__(self) -> None:
        self.enabled = False
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()

    def add(self, name: str, seconds: float = 0.0, count: int = 1) -> None:
        with self._lock:
            self.seconds[name] += seconds
            self.counts[name] += count

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        started = clock()
        try:
            yield
        finally:
            self.add(name, clock() - started)

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside the span ``name``."""
        with self.span(name):
            return fn(*args, **kwargs)

    # -- seams of sympvl ------------------------------------------------
    def factor_fn(self, matrix, **kwargs):
        """Drop-in for ``repro.linalg.factor_symmetric`` (linalg layer)."""
        from repro.errors import FactorizationError
        from repro.linalg.factorization import factor_symmetric

        try:
            with self.span("linalg.factor"):
                return factor_symmetric(matrix, **kwargs)
        except FactorizationError:
            self.add("linalg.factor_failed", count=1)
            raise

    def operator_wrapper(self, operator):
        """Time ``LanczosOperator.apply`` (core layer)."""
        return _TimedOperator(operator, self)

    def sympvl(self, system, order, **kwargs):
        """``repro.sympvl`` with the linalg and core seams traced."""
        from repro.core.sympvl import sympvl

        with self.span("core.sympvl"):
            model = sympvl(
                system, order, factor_fn=self.factor_fn,
                operator_wrapper=self.operator_wrapper, **kwargs,
            )
        result = model.metadata["lanczos"]
        self.add("core.deflations", count=len(result.deflations))
        self.add(
            "core.lookahead_clusters",
            count=sum(1 for cluster in result.clusters if len(cluster) > 1),
        )
        return model

    # -- the engine layer, through an Engine instance -------------------
    def instrument_engine(self, engine):
        """Time ``engine.compile``/``sweep``/``cache.get`` on this instance.

        A compiled sweep's time includes any compile it triggers; the
        direct-mode share counts compiled-sweep calls whose model did
        not compile to the spectral fast path.
        """
        compile_, sweep, cache_get = engine.compile, engine.sweep, engine.cache.get

        def traced_compile(model, **options):
            before = engine.stats_.compilations
            started = clock()
            compiled = compile_(model, **options)
            if self.enabled and engine.stats_.compilations > before:
                self.add("engine.compile", clock() - started)
            return compiled

        def traced_sweep(target, s_values, **kwargs):
            if not self.enabled:
                return sweep(target, s_values, **kwargs)
            exact = hasattr(target, "G") and hasattr(target, "B")
            started = clock()
            response = sweep(target, s_values, **kwargs)
            elapsed = clock() - started
            points = len(response.s)
            if exact:
                self.add("engine.exact_sweep", elapsed)
                self.add("engine.exact_points", count=points)
            else:
                self.add("engine.compiled_sweep", elapsed)
                self.add("engine.compiled_points", count=points)
                if not compile_(target).is_spectral:
                    self.add("engine.compiled_direct", count=1)
            return response

        def traced_get(key):
            entry = cache_get(key)
            if self.enabled:
                self.add(
                    "engine.cache_hits" if entry is not None
                    else "engine.cache_misses", count=1,
                )
            return entry

        engine.compile, engine.sweep = traced_compile, traced_sweep
        engine.cache.get = traced_get
        return engine

    # -- per-op report ----------------------------------------------------
    def ms(self, name: str) -> float:
        return 1e3 * self.seconds.get(name, 0.0)

    def calls(self, name: str) -> int:
        return self.counts.get(name, 0)

    def engine_ms(self) -> float:
        """Total time spent in the engine layer's spans."""
        return sum(self.ms(name) for name in (
            "engine.compile", "engine.compiled_sweep",
            "engine.exact_sweep", "engine.key",
        ))

    def layer_metrics(self, ops: int, op_ms: float) -> dict:
        """Per-op layer metrics over ``ops`` traced ops of ``op_ms`` total
        latency.  Service metrics are added by the serving workload."""
        traced_ops, ops = ops, max(ops, 1)
        factor_calls = self.calls("linalg.factor")
        failed = self.calls("linalg.factor_failed")
        sweeps = self.calls("engine.compiled_sweep")
        per_op = {
            "linalg.factor_ms": self.ms("linalg.factor") / ops,
            "linalg.factor_calls": factor_calls / ops,
            "linalg.factor_failed": failed / ops,
            "linalg.factor_useful_ratio": (
                (factor_calls - failed) / factor_calls if factor_calls else 0.0
            ),
            "core.apply_ms": self.ms("core.apply") / ops,
            "core.apply_calls": self.calls("core.apply") / ops,
            "core.apply_cols": self.calls("core.apply_cols") / ops,
            "core.lanczos_self_ms": (
                self.ms("core.sympvl") - self.ms("linalg.factor")
                - self.ms("core.apply")
            ) / ops,
            "core.deflations": self.calls("core.deflations") / ops,
            "core.lookahead_clusters": (
                self.calls("core.lookahead_clusters") / ops
            ),
            "engine.compile_ms": self.ms("engine.compile") / ops,
            "engine.compile_direct_ratio": (
                self.calls("engine.compiled_direct") / sweeps if sweeps else 0.0
            ),
            "engine.compiled_sweep_ms": self.ms("engine.compiled_sweep") / ops,
            "engine.compiled_points": self.calls("engine.compiled_points") / ops,
            "engine.key_ms": self.ms("engine.key") / ops,
            "engine.cache_hits": self.calls("engine.cache_hits") / ops,
            "engine.cache_misses": self.calls("engine.cache_misses") / ops,
            "engine.exact_sweep_ms": self.ms("engine.exact_sweep") / ops,
            "engine.exact_points": self.calls("engine.exact_points") / ops,
            "circuits.parse_ms": self.ms("circuits.parse") / ops,
            "circuits.mna_ms": self.ms("circuits.mna") / ops,
            "simulation.transient_ms": self.ms("simulation.transient") / ops,
            "synthesis.rc_ms": self.ms("synthesis.rc") / ops,
        }
        op_ms = max(op_ms, 1e-12)
        shares = {
            "linalg.share": self.ms("linalg.factor") / op_ms,
            "core.share": (
                self.ms("core.sympvl") - self.ms("linalg.factor")
            ) / op_ms,
            "engine.share": self.engine_ms() / op_ms,
            "circuits.share": (
                self.ms("circuits.parse") + self.ms("circuits.mna")
            ) / op_ms,
            "simulation.share": self.ms("simulation.transient") / op_ms,
            "synthesis.share": self.ms("synthesis.rc") / op_ms,
        }
        per_op.update(shares)
        per_op["trace.coverage"] = sum(shares.values())
        per_op["trace.ops"] = traced_ops
        return per_op


class _TimedOperator:
    """A ``LanczosOperator`` whose ``apply`` is timed; the rest delegates."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def apply(self, v):
        with self._tracer.span("core.apply"):
            out = self._inner.apply(v)
        if self._tracer.enabled:
            cols = 1 if getattr(v, "ndim", 1) == 1 else v.shape[1]
            self._tracer.add("core.apply_cols", count=cols)
        return out

    def __getattr__(self, name):
        return getattr(self._inner, name)

