"""Batched / parallel sweep executors and the ac_kernel fast path."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.engine import CompiledModel
from repro.engine.sweep import (
    batched_eval,
    compiled_sweep,
    parallel_ac_kernel,
    parallel_ac_sweep,
    resolve_workers,
)
from repro.simulation.ac import _aligned_csc_pair, ac_kernel, ac_sweep

from ..conftest import dense_impedance, rel_err


class TestResolveWorkers:
    @pytest.fixture(autouse=True)
    def eight_cpus(self, monkeypatch):
        """Pin the clamp ceiling so assertions hold on any machine."""
        import repro.engine.sweep as sweep_mod

        monkeypatch.setattr(sweep_mod.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(
            sweep_mod.os, "sched_getaffinity",
            lambda pid: set(range(8)), raising=False,
        )

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert resolve_workers(3) == 3

    def test_env_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers(None) == 5

    def test_default_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == 1

    def test_garbage_env_warns_and_serializes(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.warns(repro.errors.NumericalWarning):
            assert resolve_workers(None) == 1

    def test_floor_at_one(self):
        assert resolve_workers(0) == 1
        assert resolve_workers(-3) == 1

    def test_clamped_to_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(64) == 8
        monkeypatch.setenv("REPRO_WORKERS", "64")
        assert resolve_workers(None) == 8

    def test_nonpositive_env_warns_and_serializes(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.warns(repro.errors.NumericalWarning, match="non-positive"):
            assert resolve_workers(None) == 1
        monkeypatch.setenv("REPRO_WORKERS", "-2")
        with pytest.warns(repro.errors.NumericalWarning, match="non-positive"):
            assert resolve_workers(None) == 1

    def test_restricted_affinity_mask_wins_over_cpu_count(self, monkeypatch):
        """A container CPU quota shrinks the affinity mask while
        ``os.cpu_count()`` still reports the full machine."""
        import repro.engine.sweep as sweep_mod

        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.setattr(
            sweep_mod.os, "sched_getaffinity",
            lambda pid: {0, 3}, raising=False,
        )
        assert sweep_mod._cpu_limit() == 2
        assert resolve_workers(16) == 2
        monkeypatch.setenv("REPRO_WORKERS", "16")
        assert resolve_workers(None) == 2

    def test_missing_affinity_falls_back_to_cpu_count(self, monkeypatch):
        import repro.engine.sweep as sweep_mod

        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.delattr(
            sweep_mod.os, "sched_getaffinity", raising=False
        )
        assert sweep_mod._cpu_limit() == 8
        assert resolve_workers(64) == 8


class TestAlignedCscPair:
    def test_union_pattern_shared(self, rc_two_port_system):
        g, c, aligned = _aligned_csc_pair(rc_two_port_system)
        assert aligned
        assert np.array_equal(g.indptr, c.indptr)
        assert np.array_equal(g.indices, c.indices)

    def test_reconstructs_both_matrices(self, rlc_system):
        g, c, aligned = _aligned_csc_pair(rlc_system)
        assert aligned
        assert np.allclose(g.toarray(), rlc_system.G.toarray())
        assert np.allclose(c.toarray(), rlc_system.C.toarray())


class TestAcKernelFastPath:
    """The per-point tocsc() rebuild is gone; results are unchanged."""

    def test_matches_dense_oracle(self, rc_two_port_system):
        s = 1j * np.logspace(7, 10, 13)
        resp = ac_sweep(rc_two_port_system, s)
        assert rel_err(resp.z, dense_impedance(rc_two_port_system, s)) < 1e-10

    def test_mna_formulation(self, rlc_system):
        s = 1j * np.logspace(8, 10, 9)
        resp = ac_sweep(rlc_system, s)
        assert rel_err(resp.z, dense_impedance(rlc_system, s)) < 1e-9

    def test_singular_point_message_intact(self, lc_system):
        with pytest.raises(
            repro.errors.SimulationError, match="singular at sigma"
        ):
            ac_kernel(lc_system, np.array([0.0]))

    def test_workers_kwarg_matches_serial(self, rc_two_port_system):
        sigma = 1j * np.logspace(7, 10, 40)
        serial = ac_kernel(rc_two_port_system, sigma)
        fanned = ac_kernel(rc_two_port_system, sigma, workers=2)
        assert np.allclose(fanned, serial, rtol=1e-12, atol=0.0)


class TestBatchedEval:
    def test_chunking_matches_single_batch(self, rc_two_port_system):
        model = repro.sympvl(rc_two_port_system, order=8)
        compiled = CompiledModel.compile(model)
        sigma = 1j * np.logspace(6, 10, 33)
        whole = compiled.kernel(sigma)
        chunked = batched_eval(compiled.kernel, sigma, chunk=7)
        assert np.allclose(chunked, whole, rtol=0, atol=0)

    def test_compiled_sweep_matches_model_sweep(self, rc_two_port_system):
        model = repro.sympvl(rc_two_port_system, order=8)
        compiled = CompiledModel.compile(model)
        s = 1j * np.logspace(7, 10, 21)
        resp = compiled_sweep(compiled, s, chunk=5)
        direct = repro.model_sweep(model, s)
        assert np.allclose(resp.z, direct.z, rtol=1e-10)
        assert resp.port_names == direct.port_names

    def test_label_defaults(self, rc_two_port_system):
        model = repro.sympvl(rc_two_port_system, order=8)
        compiled = CompiledModel.compile(model)
        resp = compiled_sweep(compiled, 1j * np.logspace(7, 9, 4))
        assert "compiled" in resp.label


class TestTinySweeps:
    def test_batched_eval_clamps_nonpositive_chunk(self):
        calls = []

        def evaluate(v):
            calls.append(v.size)
            return v * 2.0

        out = batched_eval(evaluate, np.arange(5.0), chunk=0)
        assert np.array_equal(out, np.arange(5.0) * 2.0)
        assert all(size >= 1 for size in calls)  # never an empty batch

        calls.clear()
        out = batched_eval(evaluate, np.arange(5.0), chunk=-3)
        assert np.array_equal(out, np.arange(5.0) * 2.0)

    def test_batched_eval_small_grid_single_call(self):
        calls = []

        def evaluate(v):
            calls.append(v.size)
            return v

        batched_eval(evaluate, np.arange(7.0), chunk=4096)
        assert calls == [7]

    def test_batched_eval_chunk_boundaries(self):
        def evaluate(v):
            return v + 1.0

        for n in (1, 3, 4, 5, 8, 9):
            out = batched_eval(evaluate, np.arange(float(n)), chunk=4)
            assert np.array_equal(out, np.arange(float(n)) + 1.0)

    def test_parallel_kernel_tiny_grid_stays_serial(self, monkeypatch):
        system = repro.assemble_mna(repro.rc_ladder(10, port_at_far_end=True))
        sigma = np.array([1e7, 1e8, 1e9])
        out = parallel_ac_kernel(system, sigma, workers=4)
        assert np.allclose(out, ac_kernel(system, sigma))

    def test_parallel_kernel_nonpositive_min_points(self):
        """min_points_per_worker <= 0 must clamp, not divide by zero."""
        system = repro.assemble_mna(repro.rc_ladder(10, port_at_far_end=True))
        sigma = np.array([1e8, 1e9])
        out = parallel_ac_kernel(
            system, sigma, workers=1, min_points_per_worker=0
        )
        assert np.allclose(out, ac_kernel(system, sigma))
        out = parallel_ac_kernel(
            system, sigma, workers=1, min_points_per_worker=-5
        )
        assert np.allclose(out, ac_kernel(system, sigma))


class TestParallelExact:
    def test_small_grid_stays_serial(self, rc_two_port_system):
        """Below min_points_per_worker the pool is never spun up."""
        sigma = 1j * np.logspace(7, 9, 6)
        out = parallel_ac_kernel(rc_two_port_system, sigma, workers=4)
        assert np.allclose(out, ac_kernel(rc_two_port_system, sigma))

    def test_parallel_matches_serial(self, rc_two_port_system):
        sigma = 1j * np.logspace(7, 10, 32)
        serial = ac_kernel(rc_two_port_system, sigma)
        fanned = parallel_ac_kernel(
            rc_two_port_system, sigma, workers=2, min_points_per_worker=4
        )
        assert np.allclose(fanned, serial, rtol=1e-12, atol=0.0)

    def test_parallel_sweep_response(self, lc_system):
        s = 1j * np.linspace(1e9, 5e9, 24)
        resp = parallel_ac_sweep(
            lc_system, s, workers=2, label="exact-parallel"
        )
        reference = ac_sweep(lc_system, s)
        assert np.allclose(resp.z, reference.z, rtol=1e-12, atol=0.0)
        assert resp.label == "exact-parallel"

    def test_worker_count_does_not_change_values(self, rc_two_port_system):
        sigma = 1j * np.logspace(7, 10, 36)
        results = [
            parallel_ac_kernel(
                rc_two_port_system, sigma,
                workers=w, min_points_per_worker=4,
            )
            for w in (1, 2, 3)
        ]
        for out in results[1:]:
            assert np.allclose(out, results[0], rtol=1e-12, atol=0.0)


class _ExplodingPool:
    """ProcessPoolExecutor stand-in whose bring-up / map fails."""

    raises: type[BaseException] = OSError

    def __init__(self, *args, **kwargs):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, payloads):
        raise self.raises("injected pool failure")


class TestPoolFallbackObservability:
    @pytest.fixture(autouse=True)
    def many_cpus(self, monkeypatch):
        import repro.engine.sweep as sweep_mod
        from repro.engine import pool as engine_pool

        monkeypatch.setattr(sweep_mod.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(
            sweep_mod.os, "sched_getaffinity",
            lambda pid: set(range(8)), raising=False,
        )
        # these tests inject failures into the *per-call* rung; pin the
        # ladder there (the persistent tier is covered in test_pool.py)
        # and re-arm the one-shot fallback warning for each test
        was_enabled = engine_pool.pool_enabled()
        engine_pool.configure(persistent=False)
        sweep_mod._reset_pool_fallback_warning()
        yield
        engine_pool.configure(persistent=was_enabled)
        sweep_mod._reset_pool_fallback_warning()

    def test_fallback_records_health_event(
        self, rc_two_port_system, monkeypatch
    ):
        import concurrent.futures as futures

        from repro.robustness import HealthMonitor

        monkeypatch.setattr(futures, "ProcessPoolExecutor", _ExplodingPool)
        monitor = HealthMonitor()
        sigma = 1j * np.logspace(7, 10, 40)
        with pytest.warns(repro.errors.NumericalWarning, match="pool"):
            out = parallel_ac_kernel(
                rc_two_port_system, sigma,
                workers=2, min_points_per_worker=4, monitor=monitor,
            )
        assert np.allclose(out, ac_kernel(rc_two_port_system, sigma))
        events = monitor.by_category("engine.sweep")
        assert len(events) == 1
        assert events[0].data["stage"] == "pool-fallback"
        assert events[0].data["error_class"] == "OSError"

    def test_memory_error_reraised(self, rc_two_port_system, monkeypatch):
        import concurrent.futures as futures

        class OOMPool(_ExplodingPool):
            raises = MemoryError

        monkeypatch.setattr(futures, "ProcessPoolExecutor", OOMPool)
        sigma = 1j * np.logspace(7, 10, 40)
        with pytest.raises(MemoryError):
            parallel_ac_kernel(
                rc_two_port_system, sigma,
                workers=2, min_points_per_worker=4,
            )

    def test_engine_stats_reflect_pool_failure(
        self, rc_two_port_system, monkeypatch
    ):
        import concurrent.futures as futures

        from repro.engine import Engine
        from repro.robustness import HealthMonitor

        monkeypatch.setattr(futures, "ProcessPoolExecutor", _ExplodingPool)
        monitor = HealthMonitor()
        engine = Engine(workers=2, monitor=monitor)
        s = 1j * np.logspace(7, 10, 40)
        with pytest.warns(repro.errors.NumericalWarning):
            engine.sweep(rc_two_port_system, s)
        assert len(monitor.by_category("engine.sweep")) == 1

    def test_fallback_warning_is_one_shot_per_process(
        self, rc_two_port_system, monkeypatch
    ):
        """Sweep-heavy sessions see the NumericalWarning once; every
        later fallback is still visible as an ``engine.sweep`` event."""
        import concurrent.futures as futures
        import warnings as warnings_mod

        from repro.robustness import HealthMonitor

        monkeypatch.setattr(futures, "ProcessPoolExecutor", _ExplodingPool)
        monitor = HealthMonitor()
        sigma = 1j * np.logspace(7, 10, 40)
        with pytest.warns(repro.errors.NumericalWarning, match="pool"):
            parallel_ac_kernel(
                rc_two_port_system, sigma,
                workers=2, min_points_per_worker=4, monitor=monitor,
            )
        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")  # any warning would raise
            out = parallel_ac_kernel(
                rc_two_port_system, sigma,
                workers=2, min_points_per_worker=4, monitor=monitor,
            )
        assert np.allclose(out, ac_kernel(rc_two_port_system, sigma))
        assert len(monitor.by_category("engine.sweep")) == 2
