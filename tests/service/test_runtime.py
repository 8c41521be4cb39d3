"""Behavior of the serving runtime: dedup, shedding, deadlines, retries.

No pytest-asyncio in the toolchain: each test drives its scenario with
``asyncio.run`` from synchronous test functions.
"""

from __future__ import annotations

import asyncio
import dataclasses

import pytest

from repro.robustness.faultinject import ServiceFaultPlan
from repro.service import MacromodelService, ServiceConfig
from repro.service.config import RetryConfig

NETLIST = """* two-port RC ladder
R1 1 2 1.0
C1 2 0 1e-9
R2 2 3 2.0
C2 3 0 2e-9
.port P1 1 0
.port P2 3 0
"""

FAST_RETRY = dataclasses.replace(
    RetryConfig(), base_delay=0.001, max_delay=0.002
)


def make_service(fault=None, **config_kw) -> MacromodelService:
    config = ServiceConfig(**{"retry": FAST_RETRY, **config_kw})
    plan = ServiceFaultPlan.parse(fault) if fault else None
    return MacromodelService(config, fault_plan=plan)


def reduce_request(request_id="r", order=3, **params):
    return {
        "id": request_id, "op": "reduce",
        "params": {"netlist": NETLIST, "order": order, **params},
    }


def sweep_request(request_id="w", order=3, **params):
    return {
        "id": request_id, "op": "sweep",
        "params": {
            "netlist": NETLIST, "order": order,
            "band": [1e6, 1e9], "points": 8, **params,
        },
    }


def run(coro):
    return asyncio.run(coro)


class TestReduce:
    def test_reduce_ok(self):
        svc = make_service()
        resp = run(svc.handle(reduce_request()))
        assert resp["ok"], resp
        assert resp["result"]["order"] == 3
        assert resp["result"]["num_ports"] == 2
        assert resp["result"]["stable"] is True
        assert resp["elapsed_ms"] > 0

    def test_concurrent_identical_reductions_coalesce(self):
        # every request must be in flight at once for the dedup claim
        # to be deterministic: widen the slots and slow the shared
        # reduction so the stragglers join before it finishes
        svc = make_service(
            fault="service.slow@reduce", max_concurrency=8
        )
        svc.faults.slow_seconds = 0.2

        async def scenario():
            return await asyncio.gather(*(
                svc.handle(reduce_request(f"r{k}")) for k in range(6)
            ))

        responses = run(scenario())
        assert all(r["ok"] for r in responses)
        keys = {r["result"]["key"] for r in responses}
        assert len(keys) == 1
        assert svc.singleflight.starts == 1
        assert svc.singleflight.hits == 5
        assert svc.engine.stats_.reductions == 1

    def test_distinct_orders_do_not_coalesce(self):
        svc = make_service()

        async def scenario():
            return await asyncio.gather(
                svc.handle(reduce_request("a", order=3)),
                svc.handle(reduce_request("b", order=4)),
            )

        responses = run(scenario())
        assert all(r["ok"] for r in responses)
        assert svc.singleflight.starts == 2
        assert svc.engine.stats_.reductions == 2

    def test_second_request_hits_cache(self):
        svc = make_service()
        run(svc.handle(reduce_request("a")))
        resp = run(svc.handle(reduce_request("b")))
        assert resp["result"]["cached"] is True
        assert svc.engine.stats_.reductions == 1


class TestValidation:
    @pytest.mark.parametrize("request_,code", [
        ({"id": "x", "op": "bogus"}, "bad_request"),
        ({"id": "x", "op": "reduce", "params": {"order": 3}}, "bad_request"),
        (reduce_request(order=0), "bad_request"),
        (reduce_request(order="many"), "bad_request"),
        (reduce_request(engine="magic"), "bad_request"),
        (reduce_request(shift="sideways"), "bad_request"),
        (sweep_request(band=[5.0]), "bad_request"),
        (sweep_request(band=[1e9, 1e6]), "bad_request"),
        (sweep_request(points=0), "bad_request"),
    ])
    def test_rejections(self, request_, code):
        svc = make_service()
        resp = run(svc.handle(request_))
        assert not resp["ok"]
        assert resp["error"]["code"] == code

    @pytest.mark.parametrize("band", [
        [1e6, float("inf")], [float("nan"), 1e9], [1e6, float("nan")],
    ])
    def test_non_finite_band_is_bad_request(self, band):
        svc = make_service()
        resp = run(svc.handle(sweep_request(band=band)))
        assert not resp["ok"]
        assert resp["error"]["code"] == "bad_request"
        assert "'band' needs finite" in resp["error"]["message"]

    def test_nan_deadline_is_bad_request(self):
        svc = make_service()
        resp = run(svc.handle({**sweep_request(), "deadline_ms": float("nan")}))
        assert not resp["ok"]
        assert resp["error"]["code"] == "bad_request"

    def test_malformed_payload_keeps_id_when_possible(self):
        svc = make_service()
        resp = run(svc.handle({"id": "keep-me", "op": None}))
        assert resp["id"] == "keep-me"
        assert resp["error"]["code"] == "bad_request"

    def test_error_counter_increments(self):
        svc = make_service()
        run(svc.handle({"id": "x", "op": "bogus"}))
        assert svc.counters["errors"]["bad_request"] == 1


class TestAdmission:
    def test_overload_sheds_with_structured_response(self):
        svc = make_service(
            fault="service.slow@reduce", max_pending=1, max_concurrency=1
        )
        svc.faults.slow_seconds = 0.2

        async def scenario():
            first = asyncio.ensure_future(svc.handle(reduce_request("slow")))
            await asyncio.sleep(0.02)  # let it occupy the queue
            shed = await svc.handle(reduce_request("shed"))
            return await first, shed

        first, shed = run(scenario())
        assert first["ok"]
        assert not shed["ok"]
        assert shed["error"]["code"] == "overloaded"
        assert shed["error"]["retry_after_ms"] == 100
        assert svc.counters["shed"] == 1
        assert any(
            e.category == "service.shed" for e in svc.monitor.events
        )

    def test_control_plane_bypasses_admission(self):
        svc = make_service(
            fault="service.slow@reduce", max_pending=1, max_concurrency=1
        )
        svc.faults.slow_seconds = 0.2

        async def scenario():
            work = asyncio.ensure_future(svc.handle(reduce_request("slow")))
            await asyncio.sleep(0.02)
            stats = await svc.handle({"id": "s", "op": "stats"})
            health = await svc.handle({"id": "h", "op": "healthz"})
            return await work, stats, health

        work, stats, health = run(scenario())
        assert work["ok"] and stats["ok"] and health["ok"]
        assert stats["result"]["service"]["inflight"] >= 0


class TestDeadlines:
    def test_slow_stage_trips_deadline(self):
        svc = make_service(fault="service.slow@reduce")
        svc.faults.slow_seconds = 0.3
        request = {**reduce_request(), "deadline_ms": 40}
        resp = run(svc.handle(request))
        assert not resp["ok"]
        assert resp["error"]["code"] == "deadline_exceeded"
        assert svc.counters["deadline_exceeded"] == 1

    def test_timed_out_caller_still_populates_cache(self):
        """The shared reduction outlives the impatient caller."""
        svc = make_service(fault="service.slow@reduce")
        svc.faults.slow_seconds = 0.1

        async def scenario():
            timed_out = await svc.handle(
                {**reduce_request("impatient"), "deadline_ms": 30}
            )
            await svc.drain()  # the shielded task runs to completion
            svc.faults.clear()
            second = await svc.handle(reduce_request("patient"))
            return timed_out, second

        timed_out, second = run(scenario())
        assert timed_out["error"]["code"] == "deadline_exceeded"
        assert second["ok"]
        assert second["result"]["cached"] is True
        assert svc.engine.stats_.reductions == 1


class TestRetries:
    def test_transient_drop_retried_to_success(self):
        svc = make_service(fault="service.drop@reduce:once")
        resp = run(svc.handle(reduce_request()))
        assert resp["ok"], resp
        assert svc.counters["retries"] == 1
        assert any(
            e.category == "service.retry" for e in svc.monitor.events
        )

    def test_sticky_drop_exhausts_retries(self):
        svc = make_service(fault="service.drop@sweep")
        resp = run(svc.handle(sweep_request()))
        assert not resp["ok"]
        assert resp["error"]["code"] == "internal"
        assert "transient" in resp["error"]["message"]
        # attempts=3 -> 2 retries before giving up
        assert svc.counters["retries"] == 2

    def test_retry_backoff_is_deterministic(self):
        a = make_service(fault="service.drop@reduce")
        b = make_service(fault="service.drop@reduce")
        run(a.handle(reduce_request("same-id")))
        run(b.handle(reduce_request("same-id")))
        delays_a = [
            e.data["delay"] for e in a.monitor.events
            if e.category == "service.retry"
        ]
        delays_b = [
            e.data["delay"] for e in b.monitor.events
            if e.category == "service.retry"
        ]
        assert delays_a and delays_a == delays_b


class TestSweep:
    def test_reduced_sweep_values(self):
        svc = make_service()
        resp = run(svc.handle(sweep_request(return_values=True)))
        assert resp["ok"]
        result = resp["result"]
        assert result["tier"] == "compiled"
        assert result["mode"] == "reduced"
        assert len(result["z_real"]) == 8
        assert result["port_names"] == ["P1", "P2"]

    def test_exact_sweep(self):
        svc = make_service()
        resp = run(svc.handle(sweep_request(exact=True)))
        assert resp["ok"]
        assert resp["result"]["mode"] == "exact"
        assert resp["result"]["tier"] == "pool"

    def test_tier_counter(self):
        svc = make_service()
        run(svc.handle(sweep_request()))
        assert svc.counters["tiers"] == {"compiled": 1}


class TestStatsAndLifecycle:
    def test_stats_shape(self):
        svc = make_service()
        run(svc.handle(reduce_request()))
        stats = run(svc.handle({"id": "s", "op": "stats"}))["result"]
        service = stats["service"]
        for key in (
            "requests", "ok", "errors", "shed", "deadline_exceeded",
            "retries", "robust_recoveries", "tiers", "degradations",
            "singleflight", "breaker", "latency_ms", "pending",
            "inflight", "queued", "uptime_seconds",
        ):
            assert key in service, key
        assert service["breaker"]["state"] == "closed"
        assert service["latency_ms"]["total"]["count"] >= 1
        assert service["latency_ms"]["reduce"]["count"] == 1
        assert "cache" in stats["engine"]
        assert stats["faults"] is None

    def test_stats_json_serializable(self):
        import json

        svc = make_service(fault="service.drop@reduce:once")
        run(svc.handle(reduce_request()))
        json.dumps(run(svc.handle({"id": "s", "op": "stats"})))

    def test_healthz_degrades_with_breaker(self):
        svc = make_service()
        assert svc.healthz()["status"] == "ok"
        for _ in range(svc.config.breaker.fail_threshold):
            svc.breaker.record_failure()
        assert svc.healthz()["status"] == "degraded"

    def test_shutdown_drains_and_rejects_new_work(self):
        svc = make_service()

        async def scenario():
            bye = await svc.handle({"id": "q", "op": "shutdown"})
            late = await svc.handle(reduce_request("late"))
            stats = await svc.handle({"id": "s", "op": "stats"})
            return bye, late, stats

        bye, late, stats = run(scenario())
        assert bye["result"]["status"] == "draining"
        assert late["error"]["code"] == "shutting_down"
        assert stats["ok"]  # control plane still answers while draining
        assert stats["result"]["service"]["shutting_down"] is True
