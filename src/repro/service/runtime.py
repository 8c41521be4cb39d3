"""The resilient macromodel serving runtime.

:class:`MacromodelService` wraps one :class:`~repro.engine.session.Engine`
in an asyncio request front that survives real traffic:

* **admission control** -- at most ``max_pending`` requests are queued
  or running; excess load is shed immediately with a structured
  ``overloaded`` response (never unbounded memory), and at most
  ``max_concurrency`` requests execute engine work at once;
* **single-flight dedup** -- concurrent identical reductions (same
  SHA-256 :func:`~repro.engine.cache.reduction_key`) coalesce onto one
  engine call; N-1 callers await the shared result;
* **deadlines** -- each request carries a wall budget; stages check it
  cooperatively (between chunks, between retries) and the response is
  a structured ``deadline_exceeded``.  A timed-out awaiter does *not*
  cancel shared in-flight work -- the model still lands in the cache;
* **retry with backoff** -- transient faults (injected drops, infra
  hiccups) retry a bounded number of times with exponential backoff and
  deterministic jitter; *reduction* failures retry once through the
  :func:`~repro.robustness.recovery.robust_reduce` recovery ladder;
* **circuit breaker** -- repeated process-pool sweep failures trip the
  breaker; while open, exact sweeps go straight to the serial tier, and
  after a cooldown one probe request tests the pool again;
* **micro-batching** -- distinct compiled-sweep requests sharing one
  model fingerprint are held for ``batch_window_ms`` and merged into a
  single broadcast evaluation (:mod:`repro.service.batching`); slices
  scattered back are bitwise identical to solo evaluation, and
  batch-occupancy / queue-delay histograms land in ``stats``;
* **graceful degradation** -- sweeps walk a tier ladder
  (pool / compiled -> chunked serial -> per-point direct solves); every
  tier switch is recorded as a ``service.degrade``
  :class:`~repro.robustness.health.HealthMonitor` event, so degraded
  service is observable, never silent.

The runtime is front-agnostic: :meth:`MacromodelService.handle` maps a
request dict to a response dict (schema in
:mod:`repro.service.protocol`); the stdio-JSONL and HTTP fronts only
frame those dicts.
"""

from __future__ import annotations

import asyncio
import hashlib
import time
from collections import OrderedDict

import numpy as np

from repro.circuits import assemble_mna, parse_netlist
from repro.engine import Engine
from repro.engine.cache import reduction_key
from repro.errors import ReproError, SimulationError
from repro.robustness.faultinject import InjectedServiceFault, ServiceFaultPlan
from repro.robustness.health import HealthMonitor
from repro.service.batching import SweepBatcher
from repro.service.config import ServiceConfig
from repro.service.protocol import (
    ProtocolError,
    Request,
    error_response,
    ok_response,
)
from repro.service.resilience import (
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    LatencyHistogram,
    RetryPolicy,
    SingleFlight,
)

__all__ = ["MacromodelService"]

_ENGINES = ("sympvl", "sypvl", "arnoldi")
#: parsed-netlist LRU capacity (systems are shared across requests)
_PARSE_CACHE = 32


def _text_key(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _model_ports(model) -> list[str]:
    names = list(getattr(model, "port_names", []) or [])
    if not names:
        names = [f"p{k}" for k in range(int(model.num_ports))]
    return names


class MacromodelService:
    """Async multi-tenant serving session over one :class:`Engine`.

    Parameters
    ----------
    config:
        Every resilience knob (:class:`ServiceConfig`).
    engine:
        Share an existing engine; built from ``config`` when omitted.
    fault_plan:
        Optional :class:`ServiceFaultPlan` whose ``service.*`` /
        ``pool.crash`` faults fire at stage boundaries (testing only).
    monitor:
        Shared :class:`HealthMonitor`; created when omitted.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        engine: Engine | None = None,
        fault_plan: ServiceFaultPlan | None = None,
        monitor: HealthMonitor | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.monitor = monitor if monitor is not None else HealthMonitor()
        if engine is not None:
            self.engine = engine
            if self.engine.monitor is None:
                self.engine.monitor = self.monitor
        else:
            self.engine = Engine(
                cache_dir=self.config.cache_dir,
                cache_entries=self.config.cache_entries,
                cache_max_bytes=self.config.cache_max_bytes,
                cache_ttl=self.config.cache_ttl,
                workers=self.config.workers,
                monitor=self.monitor,
            )
        self.faults = fault_plan
        if self.faults is not None:
            self.faults.monitor = self.monitor
        self.retry = RetryPolicy(self.config.retry)
        self.breaker = CircuitBreaker(self.config.breaker)
        self.singleflight = SingleFlight()
        self.batcher = SweepBatcher(
            self._batched_compiled_eval,
            window_ms=self.config.batch_window_ms,
            max_size=self.config.batch_max_size,
        )
        self._slots = asyncio.Semaphore(self.config.max_concurrency)
        self._systems: OrderedDict[str, object] = OrderedDict()
        self._pending = 0
        self._active = 0
        self._shutting_down = False
        self.started_at = time.monotonic()
        self.counters = {
            "requests": 0,
            "ok": 0,
            "errors": {},       # error code -> count
            "shed": 0,
            "deadline_exceeded": 0,
            "retries": 0,
            "robust_recoveries": 0,
            "tiers": {},        # tier name -> times served
            "degradations": {}, # "from->to" -> count
        }
        self.latency = {
            stage: LatencyHistogram()
            for stage in ("parse", "reduce", "sweep", "total")
        }

    # ------------------------------------------------------------------
    # public entry point
    # ------------------------------------------------------------------
    async def handle(self, payload) -> dict:
        """One request dict (or :class:`Request`) -> one response dict."""
        started = time.monotonic()
        self.counters["requests"] += 1
        try:
            request = (
                payload
                if isinstance(payload, Request)
                else Request.from_dict(payload)
            )
        except ProtocolError as exc:
            request_id = (
                payload.get("id") if isinstance(payload, dict) else None
            )
            return self._fail(request_id, "bad_request", str(exc), started)

        # control-plane ops bypass admission: they must answer even
        # (especially) when the service is saturated or draining
        if request.op == "stats":
            self.counters["ok"] += 1
            return ok_response(
                request.id, self.stats(), elapsed=time.monotonic() - started
            )
        if request.op == "healthz":
            self.counters["ok"] += 1
            return ok_response(
                request.id, self.healthz(), elapsed=time.monotonic() - started
            )
        if request.op == "shutdown":
            self._shutting_down = True
            self.monitor.record("service.shutdown", pending=self._pending)
            self.counters["ok"] += 1
            return ok_response(
                request.id,
                {"status": "draining", "pending": self._pending},
                elapsed=time.monotonic() - started,
            )

        if self._shutting_down:
            return self._fail(
                request.id, "shutting_down",
                "service is draining; no new work accepted", started,
            )

        # admission control: bounded queue, immediate structured shed
        if self._pending >= self.config.max_pending:
            self.counters["shed"] += 1
            self.monitor.record(
                "service.shed", op=request.op, pending=self._pending
            )
            return self._fail(
                request.id, "overloaded",
                f"admission queue full ({self._pending} pending)",
                started, retry_after_ms=100,
            )

        budget = (
            request.deadline_ms / 1e3
            if request.deadline_ms is not None
            else self.config.default_deadline
        )
        deadline = Deadline.after(budget)
        self._pending += 1
        try:
            await self._await_deadline(
                self._slots.acquire(), deadline, "admission"
            )
            self._active += 1
            try:
                result = await self._dispatch(request, deadline)
            finally:
                self._active -= 1
                self._slots.release()
            self.counters["ok"] += 1
            return ok_response(
                request.id, result, elapsed=time.monotonic() - started
            )
        except DeadlineExceeded as exc:
            self.counters["deadline_exceeded"] += 1
            self.monitor.record(
                "service.deadline", op=request.op, error=str(exc)
            )
            return self._fail(
                request.id, "deadline_exceeded", str(exc), started
            )
        except ProtocolError as exc:
            return self._fail(request.id, "bad_request", str(exc), started)
        except InjectedServiceFault as exc:
            # transient fault that survived every retry
            return self._fail(
                request.id, "internal",
                f"transient failure persisted: {exc}", started,
            )
        except SimulationError as exc:
            return self._fail(
                request.id, "simulation_failed", str(exc), started
            )
        except ReproError as exc:
            return self._fail(
                request.id, "reduction_failed",
                f"{type(exc).__name__}: {exc}", started,
            )
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # a bug, not a workload property
            self.monitor.record(
                "service.internal_error",
                op=request.op,
                error_class=type(exc).__name__,
                error=str(exc),
            )
            return self._fail(
                request.id, "internal",
                f"{type(exc).__name__}: {exc}", started,
            )
        finally:
            self._pending -= 1
            self.latency["total"].observe(time.monotonic() - started)

    # ------------------------------------------------------------------
    # dispatch + retry envelope
    # ------------------------------------------------------------------
    async def _dispatch(self, request: Request, deadline: Deadline) -> dict:
        handler = (
            self._handle_reduce if request.op == "reduce"
            else self._handle_sweep
        )
        attempts = self.retry.attempts
        retry_key = f"{request.op}:{request.id}"
        last: Exception | None = None
        for attempt in range(1, attempts + 1):
            deadline.check(request.op)
            try:
                return await handler(request, deadline)
            except InjectedServiceFault as exc:
                # transient service fault: bounded backoff retry
                last = exc
                if attempt >= attempts:
                    raise
                self.counters["retries"] += 1
                delay = self.retry.delay(attempt, retry_key)
                self.monitor.record(
                    "service.retry",
                    op=request.op, attempt=attempt, delay=delay,
                    error=str(exc),
                )
                await self._await_deadline(
                    asyncio.sleep(delay), deadline, "backoff"
                )
        raise last  # pragma: no cover - loop always returns or raises

    async def _inject_stage(self, stage: str) -> None:
        """Fire armed ``service.slow`` / ``service.drop`` faults."""
        if self.faults is None:
            return
        delay = self.faults.slow_delay(stage)
        if delay > 0.0:
            await asyncio.sleep(delay)
        self.faults.maybe_drop(stage)

    # ------------------------------------------------------------------
    # parse stage (shared, LRU-cached)
    # ------------------------------------------------------------------
    async def _obtain_system(self, params: dict, deadline: Deadline):
        netlist = params.get("netlist")
        if not isinstance(netlist, str) or not netlist.strip():
            raise ProtocolError("'netlist' must be a non-empty string")
        if len(netlist) > self.config.max_netlist_bytes:
            raise ProtocolError(
                f"netlist exceeds {self.config.max_netlist_bytes} bytes"
            )
        key = _text_key(netlist)
        system = self._systems.get(key)
        if system is not None:
            self._systems.move_to_end(key)
            return system
        started = time.monotonic()

        def parse():
            return assemble_mna(parse_netlist(netlist))

        system = await self._await_deadline(
            asyncio.to_thread(parse), deadline, "parse"
        )
        self.latency["parse"].observe(time.monotonic() - started)
        self._systems[key] = system
        while len(self._systems) > _PARSE_CACHE:
            self._systems.popitem(last=False)
        return system

    # ------------------------------------------------------------------
    # reduce stage (single-flight + recovery ladder)
    # ------------------------------------------------------------------
    @staticmethod
    def _reduce_params(params: dict, config: ServiceConfig):
        try:
            order = int(params.get("order"))
        except (TypeError, ValueError):
            raise ProtocolError("'order' must be an integer") from None
        if not 1 <= order <= config.max_order:
            raise ProtocolError(
                f"'order' must be in [1, {config.max_order}]"
            )
        engine_name = params.get("engine", "sympvl")
        if engine_name not in _ENGINES:
            raise ProtocolError(
                f"unknown engine {engine_name!r}; "
                f"expected one of {', '.join(_ENGINES)}"
            )
        shift = params.get("shift", "auto")
        if shift != "auto":
            try:
                shift = float(shift)
            except (TypeError, ValueError):
                raise ProtocolError(
                    "'shift' must be 'auto' or a number"
                ) from None
        robust = bool(params.get("robust", False))
        return order, engine_name, shift, robust

    async def _obtain_model(
        self, system, params: dict, deadline: Deadline
    ) -> tuple[str, object, dict]:
        """Reduce (or fetch) the model for ``params``; single-flighted.

        Returns ``(key, model, meta)`` where ``meta`` records the
        source (cache / reduction / recovery) for the response.
        """
        order, engine_name, shift, robust = self._reduce_params(
            params, self.config
        )
        key = reduction_key(
            system,
            engine=engine_name,
            order=order,
            options={"shift": shift},
            version=self.engine.version,
        )
        meta = {"key": key[:16], "engine": engine_name}
        started = time.monotonic()
        before_hits = self.engine.cache.stats.hits

        async def factory():
            await self._inject_stage("reduce")
            # the recovery ladder always drives SyMPVL, so it only backs
            # up sympvl-engined requests
            recoverable = engine_name == "sympvl"
            if robust and recoverable:
                return await asyncio.to_thread(
                    self._robust_reduce_sync, system, order, shift, key
                )
            try:
                return await asyncio.to_thread(
                    self.engine.reduce, system, order,
                    engine=engine_name, shift=shift,
                )
            except InjectedServiceFault:
                raise
            except ReproError:
                if not (self.config.robust_reductions and recoverable):
                    raise
                # the retry policy for reduction failures IS the
                # robust_reduce recovery ladder
                self.counters["robust_recoveries"] += 1
                return await asyncio.to_thread(
                    self._robust_reduce_sync, system, order, shift, key
                )

        model = await self._await_deadline(
            self.singleflight.run(key, factory), deadline, "reduce"
        )
        self.latency["reduce"].observe(time.monotonic() - started)
        meta["cached"] = self.engine.cache.stats.hits > before_hits
        meta["order"] = int(model.order)
        meta["num_ports"] = int(model.num_ports)
        return key, model, meta

    def _robust_reduce_sync(self, system, order, shift, key):
        """Recovery-ladder reduction; the result still lands in the cache."""
        from repro.robustness.recovery import robust_reduce

        result = robust_reduce(
            system, order, shift=shift, monitor=self.monitor
        )
        self.engine.cache.put(key, result.model)
        return result.model

    async def _handle_reduce(
        self, request: Request, deadline: Deadline
    ) -> dict:
        system = await self._obtain_system(request.params, deadline)
        key, model, meta = await self._obtain_model(
            system, request.params, deadline
        )
        stable = None
        try:
            stable = bool(model.is_stable())
        except Exception:
            pass
        return {
            **meta,
            "source_size": int(system.size),
            "stable": stable,
        }

    # ------------------------------------------------------------------
    # sweep stage (degradation ladder + breaker)
    # ------------------------------------------------------------------
    def _sweep_grid(self, params: dict) -> np.ndarray:
        band = params.get("band")
        if (
            not isinstance(band, (list, tuple))
            or len(band) != 2
        ):
            raise ProtocolError("'band' must be [w_lo, w_hi]")
        try:
            w_lo, w_hi = float(band[0]), float(band[1])
        except (TypeError, ValueError):
            raise ProtocolError("'band' entries must be numbers") from None
        if not (0 < w_lo < w_hi and np.isfinite(w_hi)):
            raise ProtocolError("'band' needs finite 0 < w_lo < w_hi")
        try:
            points = int(params.get("points", 200))
        except (TypeError, ValueError):
            raise ProtocolError("'points' must be an integer") from None
        if not 1 <= points <= self.config.max_points:
            raise ProtocolError(
                f"'points' must be in [1, {self.config.max_points}]"
            )
        return 1j * np.logspace(np.log10(w_lo), np.log10(w_hi), points)

    async def _handle_sweep(
        self, request: Request, deadline: Deadline
    ) -> dict:
        params = request.params
        s = self._sweep_grid(params)
        system = await self._obtain_system(params, deadline)
        await self._inject_stage("sweep")
        exact = bool(params.get("exact", False))
        started = time.monotonic()
        if exact:
            tier, response = await self._exact_sweep(system, s, deadline)
            meta: dict = {"mode": "exact"}
        else:
            key, model, meta = await self._obtain_model(
                system, params, deadline
            )
            tier, response = await self._model_sweep(
                model, s, deadline, key=key
            )
            meta = {"mode": "reduced", **meta}
        self.latency["sweep"].observe(time.monotonic() - started)
        self.counters["tiers"][tier] = self.counters["tiers"].get(tier, 0) + 1
        result = {
            **meta,
            "tier": tier,
            "points": int(s.size),
            "max_abs": float(np.abs(response.z).max()),
        }
        if bool(params.get("return_values", False)):
            if response.z.size > self.config.max_response_values:
                raise ProtocolError(
                    "response too large for return_values; lower 'points'"
                )
            result["z_real"] = np.real(response.z).tolist()
            result["z_imag"] = np.imag(response.z).tolist()
            result["port_names"] = list(response.port_names)
        return result

    async def _run_ladder(self, tiers, deadline: Deadline):
        """Walk degradation tiers; record every switch; re-raise what no
        tier can fix (deadlines, genuinely singular points)."""
        last: Exception | None = None
        for index, (name, fn, guarded) in enumerate(tiers):
            deadline.check(name)
            if guarded and not self.breaker.allow():
                self._record_degrade(
                    name, tiers, index, "breaker-open", short_circuit=True
                )
                continue
            try:
                result = await fn()
            except (DeadlineExceeded, asyncio.CancelledError):
                raise
            except SimulationError:
                raise  # a singular point fails identically on every tier
            except Exception as exc:
                if guarded:
                    self.breaker.record_failure()
                last = exc
                self._record_degrade(
                    name, tiers, index,
                    f"{type(exc).__name__}: {exc}", short_circuit=False,
                )
                continue
            if guarded:
                self.breaker.record_success()
            return name, result
        assert last is not None
        raise last

    def _record_degrade(
        self, tier: str, tiers, index: int, reason: str, *, short_circuit: bool
    ) -> None:
        next_tier = tiers[index + 1][0] if index + 1 < len(tiers) else None
        edge = f"{tier}->{next_tier or 'none'}"
        self.counters["degradations"][edge] = (
            self.counters["degradations"].get(edge, 0) + 1
        )
        self.monitor.record(
            "service.degrade",
            from_tier=tier,
            to_tier=next_tier,
            reason=reason,
            breaker_short_circuit=short_circuit,
        )

    async def _exact_sweep(self, system, s: np.ndarray, deadline: Deadline):
        """Exact-sweep ladder: pool -> chunked serial -> per-point direct."""
        from repro.engine.sweep import parallel_ac_sweep
        from repro.simulation.ac import ac_sweep

        async def pool_tier():
            if self.faults is not None:
                self.faults.maybe_crash_pool("chunk")
            return await self._await_deadline(
                asyncio.to_thread(
                    parallel_ac_sweep, system, s,
                    workers=self.config.workers, monitor=self.monitor,
                ),
                deadline, "sweep",
            )

        async def serial_tier():
            return await self._chunked_sweep(
                lambda chunk: ac_sweep(system, chunk), s, deadline,
                self.config.serial_chunk, system.port_names,
            )

        async def direct_tier():
            return await self._chunked_sweep(
                lambda chunk: ac_sweep(system, chunk), s, deadline,
                1, system.port_names,
            )

        return await self._run_ladder(
            [
                ("pool", pool_tier, True),
                ("chunked-serial", serial_tier, False),
                ("direct", direct_tier, False),
            ],
            deadline,
        )

    async def _batched_compiled_eval(self, model, s: np.ndarray):
        """The one evaluation path behind the batcher: identical to the
        unbatched compiled tier, just over the merged grid."""
        return await asyncio.to_thread(self.engine.sweep, model, s)

    async def _model_sweep(
        self, model, s: np.ndarray, deadline: Deadline, *, key: str | None = None
    ):
        """Reduced-sweep ladder: compiled (batched) -> chunked serial ->
        direct.  ``key`` is the model's reduction fingerprint; requests
        sharing it within ``batch_window_ms`` merge into one broadcast
        evaluation (compiled evaluation is elementwise across the
        frequency axis, so the scattered slices are bitwise identical
        to solo sweeps)."""
        from repro.simulation.ac import model_sweep

        ports = _model_ports(model)

        async def compiled_tier():
            if key is not None and self.batcher.enabled:
                return await self._await_deadline(
                    self.batcher.submit(key, model, s), deadline, "sweep"
                )
            return await self._await_deadline(
                asyncio.to_thread(self.engine.sweep, model, s),
                deadline, "sweep",
            )

        async def serial_tier():
            return await self._chunked_sweep(
                lambda chunk: model_sweep(model, chunk), s, deadline,
                self.config.serial_chunk, ports,
            )

        async def direct_tier():
            # scalar evaluation per point: one dense solve, zero
            # compiled-path involvement -- the last-resort tier
            def one_point(sk):
                z = np.asarray(model.impedance(complex(sk)))
                return z[np.newaxis, ...]

            return await self._chunked_sweep(
                lambda chunk: _stack_response(
                    [one_point(sk) for sk in chunk], chunk, ports
                ),
                s, deadline, max(1, self.config.serial_chunk // 8), ports,
            )

        return await self._run_ladder(
            [
                ("compiled", compiled_tier, False),
                ("chunked-serial", serial_tier, False),
                ("direct", direct_tier, False),
            ],
            deadline,
        )

    async def _chunked_sweep(
        self, evaluate, s: np.ndarray, deadline: Deadline, chunk: int,
        port_names,
    ):
        """Run ``evaluate`` chunk by chunk with cooperative deadline
        checks between chunks (the degradation tiers' shared driver)."""
        from repro.simulation.results import FrequencyResponse

        chunk = max(1, int(chunk))
        parts = []
        for lo in range(0, s.size, chunk):
            deadline.check("sweep-chunk")
            piece = s[lo:lo + chunk]
            part = await asyncio.to_thread(evaluate, piece)
            parts.append(np.asarray(part.z))
        return FrequencyResponse(
            s=s,
            z=np.concatenate(parts, axis=0),
            port_names=list(port_names),
            label="service",
        )

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Merged service + engine + cache metrics (JSON-ready)."""
        return {
            "service": {
                "uptime_seconds": round(
                    time.monotonic() - self.started_at, 3
                ),
                "shutting_down": self._shutting_down,
                "pending": self._pending,
                "inflight": self._active,
                "queued": max(0, self._pending - self._active),
                **{
                    k: v
                    for k, v in self.counters.items()
                },
                "singleflight": {
                    "starts": self.singleflight.starts,
                    "hits": self.singleflight.hits,
                    "inflight": self.singleflight.inflight_count(),
                },
                "batching": self.batcher.describe(),
                "breaker": self.breaker.describe(),
                "latency_ms": {
                    stage: hist.to_dict()
                    for stage, hist in self.latency.items()
                },
            },
            "engine": self.engine.stats(),
            "faults": (
                self.faults.summary() if self.faults is not None else None
            ),
        }

    def healthz(self) -> dict:
        """Cheap liveness/readiness summary."""
        if self._shutting_down:
            status = "draining"
        elif self.breaker.state != CircuitBreaker.CLOSED:
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "breaker": self.breaker.state,
            "pending": self._pending,
            "inflight": self._active,
            "batching_pending": self.batcher.pending_requests(),
        }

    @property
    def shutting_down(self) -> bool:
        return self._shutting_down

    async def drain(self) -> None:
        """Wait for in-flight shared work to finish (shutdown barrier)."""
        await self.batcher.drain()
        await self.singleflight.drain()

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _fail(
        self, request_id, code: str, message: str, started: float, **extra
    ) -> dict:
        self.counters["errors"][code] = (
            self.counters["errors"].get(code, 0) + 1
        )
        return error_response(
            request_id, code, message,
            elapsed=time.monotonic() - started, **extra,
        )

    @staticmethod
    async def _await_deadline(awaitable, deadline: Deadline, stage: str):
        remaining = deadline.remaining()
        if remaining is None:
            return await awaitable
        try:
            return await asyncio.wait_for(awaitable, timeout=remaining)
        except asyncio.TimeoutError:
            raise DeadlineExceeded(
                f"deadline exceeded at stage {stage!r}"
            ) from None


def _stack_response(parts, s, port_names):
    """Assemble per-point kernels into a FrequencyResponse-shaped object."""
    from repro.simulation.results import FrequencyResponse

    return FrequencyResponse(
        s=np.asarray(s),
        z=np.concatenate(parts, axis=0),
        port_names=list(port_names),
        label="direct",
    )
