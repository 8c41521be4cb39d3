"""Workload ``serve-hot``: compiled-sweep requests to a warm service.

Requests go through ``MacromodelService.handle`` in process, from a
closed loop of 2 clients (each sends its next request when the previous
one is answered) with ``max_concurrency=2``.  Set-up reduces the 8 paper
models (PEEC 20/50/56, package 48/64/80, RC bus 34/68) and sweeps each
once, so every timed request is a cache hit on a compiled model.  The
seeded, synthetic request mix (:data:`MODELS`) is skewed toward a few
models, so concurrent requests sometimes share one and ride one batched
evaluation; each request asks for 200-2000 points.

Exact sweeps are left out: the sweep pool would be forked from this
threaded asyncio process (see ``perfbench/README.md``).

Checks: every response is ``ok``; after the timed loop, every response
that returned its values is bitwise equal to ``Engine.sweep`` on the
same cached model.
"""

from __future__ import annotations

import asyncio
import hashlib
from contextlib import contextmanager, nullcontext

import numpy as np

import repro
from repro.service.config import ServiceConfig
from repro.service.runtime import MacromodelService
from harness import Sample, clock, traced_ops
from tracing import Tracer

CLIENTS = 2
MIN_POINTS, MAX_POINTS = 200, 2000
#: requests per shuffled block of the request mix (see request_stream)
BLOCK = 100
#: requests per block that return their values (checked bitwise)
RETURN_VALUES_PER_BLOCK = 2
#: a traced run alternates untraced and traced blocks of about this length
TRACE_BLOCK_S = 0.5
PACKAGE_SHIFT = 2 * np.pi * 1.5e9
BANDS = {
    "peec": (1.5e9, 4.0e10),
    "package": (2 * np.pi * 5e7, 2 * np.pi * 5e9),
    "bus": (2 * np.pi * 1e7, 2 * np.pi * 1e10),
}
#: (testbed, order, shift, share of requests); shares are multiples of
#: 1 / BLOCK.  A synthetic mix: no measured traffic exists.  Each model
#: gets at least 4 requests per block, so its point counts are stratified
#: in every block; the two direct-mode package models (64, 80) sit at that
#: floor because they are the slow path; one hot model makes concurrent
#: requests sometimes share a model.  perfbench/README.md gives the basis
#: and what the mix makes the metrics measure.
MODELS = [
    ("peec", 20, "auto", 0.30),
    ("peec", 50, "auto", 0.15),
    ("peec", 56, "auto", 0.10),
    ("package", 48, PACKAGE_SHIFT, 0.10),
    ("package", 64, PACKAGE_SHIFT, 0.04),
    ("package", 80, PACKAGE_SHIFT, 0.04),
    ("bus", 34, 0.0, 0.15),
    ("bus", 68, 0.0, 0.12),
]


def netlists() -> dict:
    return {
        "peec": repro.write_netlist(repro.peec_like_lc(200)),
        "package": repro.write_netlist(repro.package_model()),
        "bus": repro.write_netlist(
            repro.coupled_rc_bus(driver_resistance=100.0)
        ),
    }


def params(texts: dict, model: int, **extra) -> dict:
    testbed, order, shift, _ = MODELS[model]
    return {"netlist": texts[testbed], "order": order, "shift": shift,
            **extra}


def request_stream(seed: int, texts: dict):
    """Endless seeded sequence of ``(index, model, request)``.

    Requests come in shuffled blocks of :data:`BLOCK` that hold each
    model exactly its share of times, with point counts stratified over
    ``[MIN_POINTS, MAX_POINTS]`` and :data:`RETURN_VALUES_PER_BLOCK`
    requests returning the values of ``MIN_POINTS`` points.  Every seed
    thus sends the same mix in a different order, so runs with different
    seeds stay comparable.
    """
    rng = np.random.default_rng(seed)
    index = 0
    while True:
        block = []
        for model, (*_head, share) in enumerate(MODELS):
            count = round(share * BLOCK)
            strata = (np.arange(count) + rng.random(count)) / count
            points = MIN_POINTS + np.floor(
                strata * (MAX_POINTS - MIN_POINTS + 1)
            ).astype(int)
            block += [(model, int(p)) for p in points]
        values = set(rng.choice(BLOCK, RETURN_VALUES_PER_BLOCK, replace=False))
        for position in rng.permutation(BLOCK):
            model, points = block[position]
            if position in values:
                # value lists of 17 x 17 ports at 2000 points are ~40 MB;
                # two in flight at once would make peak RSS a coin toss
                points = MIN_POINTS
            yield index, model, {
                "id": index, "op": "sweep",
                "params": params(
                    texts, model, band=list(BANDS[MODELS[model][0]]),
                    points=points, return_values=position in values,
                ),
            }
            index += 1


async def build_service(texts: dict) -> MacromodelService:
    """A service with every model reduced, compiled and swept once."""
    service = MacromodelService(
        ServiceConfig(max_concurrency=CLIENTS, workers=2)
    )
    for k in range(len(MODELS)):
        response = await service.handle(
            {"id": f"reduce-{k}", "op": "reduce", "params": params(texts, k)}
        )
        if not response["ok"]:
            raise RuntimeError(f"set-up reduction failed: {response}")
    for k, (testbed, *_rest) in enumerate(MODELS):
        response = await service.handle({
            "id": f"warm-{k}", "op": "sweep",
            "params": params(texts, k, band=list(BANDS[testbed]),
                             points=MAX_POINTS),
        })
        if not response["ok"]:
            raise RuntimeError(f"set-up sweep failed: {response}")
    return service


def digest(real, imag) -> bytes:
    """SHA-256 of a response's float64 real and imaginary parts."""
    hasher = hashlib.sha256(np.array(real, dtype=float).tobytes())
    hasher.update(np.array(imag, dtype=float).tobytes())
    return hasher.digest()


def verify_values(service, texts: dict, stashed: list) -> None:
    """Bitwise-compare returned values with ``Engine.sweep``; a request
    whose values differ is marked failed."""
    systems = {}
    for sample, model_index, request, returned in stashed:
        testbed, order, shift, _ = MODELS[model_index]
        if testbed not in systems:
            systems[testbed] = repro.assemble_mna(
                repro.parse_netlist(texts[testbed])
            )
        model = service.engine.reduce(systems[testbed], order, shift=shift)
        w_lo, w_hi = request["params"]["band"]
        s = 1j * np.logspace(np.log10(w_lo), np.log10(w_hi),
                             request["params"]["points"])
        reference = service.engine.sweep(model, s).z
        if digest(reference.real, reference.imag) != returned:
            sample.ok = False
            print(f"request {request['id']}: values differ from "
                  "Engine.sweep", flush=True)


@contextmanager
def timed_reduction_key(tracer):
    """Time ``reduction_key`` where the service and the engine call it."""
    from repro.engine import session
    from repro.service import runtime

    original = runtime.reduction_key

    def timed_key(*args, **kwargs):
        return tracer.call("engine.key", original, *args, **kwargs)

    runtime.reduction_key = session.reduction_key = timed_key
    try:
        yield
    finally:
        runtime.reduction_key = session.reduction_key = original


def service_counters(service) -> dict:
    stats = service.stats()["service"]
    batching = service.batcher
    return {
        "events": len(service.monitor.events),
        "shed": stats["shed"],
        "deadline_exceeded": stats["deadline_exceeded"],
        "degradations": sum(stats["degradations"].values()),
        "batches": batching.batches,
        "batched_requests": batching.batched_requests,
        "wait_ms": batching.queue_delay.sum_ms,
        "waits": batching.queue_delay.total,
    }


async def closed_loop(service, requests, seconds: float, tracer,
                      trace: bool):
    """:data:`CLIENTS` clients, each sending its next request when the
    last is answered.  Returns the samples, the value digests to verify
    and the wall time from start to the last answer."""
    samples: list[Sample] = []
    stashed = []
    start = clock()
    last_done = start
    in_flight = 0

    async def client() -> None:
        nonlocal last_done, in_flight
        while clock() - start < seconds:
            index, model, request = next(requests)
            block = int((clock() - start) / TRACE_BLOCK_S)
            wanted = trace and block % 2 == 1
            # flip tracing only with nothing in flight, so every request
            # is wholly traced or wholly untraced
            while tracer.enabled != wanted and in_flight:
                await asyncio.sleep(1e-4)
            tracer.enabled = wanted
            in_flight += 1
            began = clock()
            try:
                response = await service.handle(request)
            finally:
                in_flight -= 1
            done = clock()
            last_done = max(last_done, done)
            sample = Sample(done - began, wanted, bool(response.get("ok")))
            samples.append(sample)
            if not sample.ok:
                print(f"request {index} failed: {response.get('error')}",
                      flush=True)
            elif request["params"]["return_values"]:
                # keep a digest: the value lists would swell peak RSS
                result = response["result"]
                stashed.append((sample, model, request,
                                digest(result["z_real"], result["z_imag"])))

    try:
        await asyncio.gather(*(client() for _ in range(CLIENTS)))
    finally:
        tracer.enabled = False
    return samples, stashed, last_done - start


def service_layer(tracer, samples, before: dict, after: dict) -> dict:
    """Per-layer metrics of the traced requests, service layer included."""
    count, handle_ms = traced_ops(samples)
    ops = max(count, 1)
    metrics = tracer.layer_metrics(count, handle_ms)
    engine_ms = tracer.engine_ms()
    delta = {k: after[k] - before[k] for k in after}
    batch_wait_ms = delta["wait_ms"] / max(delta["waits"], 1)
    metrics.update({
        "service.handle_ms": handle_ms / ops,
        "service.engine_ms": engine_ms / ops,
        "service.overhead_ms": (handle_ms - engine_ms) / ops,
        "service.batch_wait_ms": batch_wait_ms,
        "service.batch_occupancy_mean": (
            delta["batched_requests"] / max(delta["batches"], 1)
        ),
        "service.shed": delta["shed"],
        "service.deadline_exceeded": delta["deadline_exceeded"],
        "service.degradations": delta["degradations"],
        "service.health_events_per_op": delta["events"] / len(samples),
        "service.share": (handle_ms - engine_ms) / max(handle_ms, 1e-12),
        # the part of a request the spans explain
        "trace.coverage": (engine_ms / ops + batch_wait_ms)
        / max(handle_ms / ops, 1e-12),
    })
    return metrics


class ServeHot:
    """The workload for :func:`harness.run_workload`.  Its coroutines run
    on one event loop that lives as long as the workload."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.runner = asyncio.Runner()
        self.service = None

    def setup(self) -> None:
        if self.service is not None:
            self.runner.run(self.service.drain())
        self.texts = netlists()
        self.service = self.runner.run(build_service(self.texts))

    def measure(self, seconds: float, tracer):
        trace = tracer is not None
        if trace:
            tracer.instrument_engine(self.service.engine)
        else:
            tracer = Tracer()  # closed_loop reads its flag; never enabled
        self.before = service_counters(self.service)
        with timed_reduction_key(tracer) if trace else nullcontext():
            samples, self.stashed, elapsed = self.runner.run(closed_loop(
                self.service, request_stream(self.seed, self.texts),
                seconds, tracer, trace,
            ))
        self.after = service_counters(self.service)
        self.requests = len(samples)
        return samples, elapsed

    def final_check(self) -> bool:
        verify_values(self.service, self.texts, self.stashed)
        print(f"serve-hot: {self.requests} requests, {len(self.stashed)} "
              "value checks", flush=True)
        return True  # a request whose values differ is marked failed

    def layer_metrics(self, tracer, samples) -> dict:
        return service_layer(tracer, samples, self.before, self.after)

    def close(self) -> None:
        try:
            if self.service is not None:
                self.runner.run(self.service.drain())
        finally:
            self.runner.close()
