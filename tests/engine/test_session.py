"""Engine session metrics, sweep dispatch, and the sweep/cache CLI."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

import repro
from repro.circuits import write_netlist
from repro.cli import main
from repro.engine import CompiledModel, Engine
from repro.robustness import HealthMonitor

from .test_compiled import _defective_rom


@pytest.fixture
def netlist_file(tmp_path):
    net = repro.rc_ladder(20, port_at_far_end=True)
    path = tmp_path / "circuit.sp"
    path.write_text(write_netlist(net))
    return path


class TestEngineSession:
    def test_sweep_dispatch_model_vs_system(self, rc_two_port_system):
        engine = Engine()
        model = engine.reduce(rc_two_port_system, 8)
        s = 1j * np.logspace(7, 10, 25)

        reduced = engine.sweep(model, s)
        exact = engine.sweep(rc_two_port_system, s)
        assert engine.stats_.compiled_points == 25
        assert engine.stats_.exact_points == 25
        assert engine.stats_.sweeps == 2
        # spectral model: every reduced-model point skipped a solve
        assert engine.stats_.solves_avoided == 25
        # compiled dispatch agrees with the plain model sweep ...
        reference = repro.model_sweep(model, s)
        assert np.allclose(reduced.z, reference.z, rtol=1e-10)
        # ... and the exact dispatch with the plain exact sweep
        assert np.allclose(
            exact.z, repro.ac_sweep(rc_two_port_system, s).z, rtol=1e-12
        )

    def test_default_path_bit_identical(self, rc_two_port_system):
        """A compiled engine sweep is the compiled impedance, bit for bit."""
        engine = Engine()
        model = engine.reduce(rc_two_port_system, 8)
        s = 1j * np.logspace(7, 10, 25)
        compiled = engine.compile(model)
        assert np.array_equal(engine.sweep(model, s).z, compiled.impedance(s))

    def test_compile_memoized_per_instance(self, rc_two_port_system):
        engine = Engine()
        model = engine.reduce(rc_two_port_system, 8)
        first = engine.compile(model)
        assert engine.compile(model) is first
        assert engine.stats_.compilations == 1
        # precompiled models pass straight through
        assert engine.compile(first) is first

    def test_fallback_counted_and_no_solves_avoided(self):
        engine = Engine()
        rom = _defective_rom()
        engine.sweep(rom, 1j * np.linspace(0.1, 1.0, 9))
        assert engine.stats_.compile_fallbacks == 1
        assert engine.stats_.solves_avoided == 0
        assert engine.stats_.compiled_points == 9

    def test_transient_delegation(self, rc_two_port_system):
        engine = Engine()
        model = engine.reduce(rc_two_port_system, 8)
        t = np.linspace(0.0, 1e-8, 50)
        drives = {"in": repro.Step(1.0, rise=1e-9)}
        result = engine.transient(model, drives, t)
        assert engine.stats_.transients == 1
        assert result.outputs.shape[0] == t.size

    def test_stats_shape(self, rc_two_port_system):
        engine = Engine(workers=2)
        engine.reduce(rc_two_port_system, 8)
        stats = engine.stats()
        assert stats["reductions"] == 1
        # resolve_workers clamps to the physical core count
        assert stats["workers"] == min(2, os.cpu_count() or 1)
        assert stats["cache"]["memory_entries"] == 1
        assert set(stats["wall_seconds"]) == {
            "reduce", "compile", "sweep", "transient", "fit"
        }

    def test_monitor_sees_cache_and_compile(self, rc_two_port_system):
        monitor = HealthMonitor()
        engine = Engine(monitor=monitor)
        engine.reduce(rc_two_port_system, 8)
        engine.reduce(rc_two_port_system, 8)
        cache_events = monitor.by_category("engine.cache")
        assert [e.data["hit"] for e in cache_events] == [False, True]
        engine.sweep(
            engine.reduce(rc_two_port_system, 8), 1j * np.logspace(7, 9, 5)
        )
        assert monitor.by_category("engine.compile")


class TestFactorizationCacheKey:
    def test_explicit_backend_changes_key(self, rc_two_port_system):
        engine = Engine()
        engine.reduce(rc_two_port_system, 8)
        assert engine.cache.stats.misses == 1
        # a different effective backend must not hit the auto entry
        engine.reduce(rc_two_port_system, 8, factor_method="superlu")
        assert engine.cache.stats.misses == 2
        engine.reduce(rc_two_port_system, 8, factor_method="superlu")
        assert engine.cache.stats.hits == 1

    def test_env_override_changes_key(self, rc_two_port_system, monkeypatch):
        engine = Engine()
        monkeypatch.delenv("REPRO_FACTORIZATION", raising=False)
        engine.reduce(rc_two_port_system, 8)
        monkeypatch.setenv("REPRO_FACTORIZATION", "superlu")
        engine.reduce(rc_two_port_system, 8)
        assert engine.cache.stats.misses == 2

    def test_env_and_explicit_share_one_entry(
        self, rc_two_port_system, monkeypatch
    ):
        # the key holds the *resolved* backend, so pinning via argument
        # and pinning via environment address the same cache entry
        engine = Engine()
        monkeypatch.delenv("REPRO_FACTORIZATION", raising=False)
        engine.reduce(rc_two_port_system, 8, factor_method="superlu")
        monkeypatch.setenv("REPRO_FACTORIZATION", "superlu")
        engine.reduce(rc_two_port_system, 8)
        assert engine.cache.stats.hits == 1
        assert engine.cache.stats.misses == 1


class TestSweepCommand:
    def test_basic_sweep(self, netlist_file, capsys):
        rc = main([
            "sweep", str(netlist_file), "--order", "8",
            "--band", "1e7", "1e10", "--points", "40",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fresh reduction" in out
        assert "mode = spectral" in out
        assert "swept 40 points" in out

    def test_cache_dir_round_trip(self, netlist_file, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        argv = [
            "sweep", str(netlist_file), "--order", "8",
            "--band", "1e7", "1e10", "--points", "10",
            "--cache-dir", str(cache_dir),
        ]
        assert main(argv) == 0
        assert "fresh reduction" in capsys.readouterr().out
        assert main(argv) == 0
        assert "(cache)" in capsys.readouterr().out

    def test_exact_and_outputs(self, netlist_file, tmp_path, capsys):
        csv = tmp_path / "sweep.csv"
        stats = tmp_path / "stats.json"
        rc = main([
            "sweep", str(netlist_file), "--order", "10",
            "--band", "1e7", "1e10", "--points", "15", "--exact",
            "--out", str(csv), "--stats-json", str(stats),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "vs exact" in out
        assert csv.read_text().startswith("omega,")
        payload = json.loads(stats.read_text())
        assert payload["reductions"] == 1
        assert payload["solves_avoided"] == 15
        assert payload["cache"]["misses"] == 1

    def test_bad_band_rejected(self, netlist_file, capsys):
        rc = main([
            "sweep", str(netlist_file), "--order", "8",
            "--band", "1e10", "1e7",
        ])
        assert rc != 0
        assert "band" in capsys.readouterr().err


class TestCacheCommand:
    def test_stats_and_clear(self, netlist_file, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        main([
            "sweep", str(netlist_file), "--order", "8",
            "--band", "1e7", "1e10", "--points", "5",
            "--cache-dir", str(cache_dir),
        ])
        capsys.readouterr()

        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "disk_entries" in out and "1" in out

        assert main(["cache", "clear", "--cache-dir", str(cache_dir)]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert list(cache_dir.glob("*.npz")) == []
