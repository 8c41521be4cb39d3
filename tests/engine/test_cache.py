"""Content-addressed reduction cache: keying, round-trips, persistence.

Covers the satellite requirements: the same netlist twice hits the
cache (hit counter asserted), perturbing one element value or one
reduction option misses, the disk cache survives a fresh Engine
instance, and a version-string bump invalidates it.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.engine import Engine, ReductionCache, reduction_key
from repro.engine.cache import fingerprint_system


def ladder_system(r_last: float = 1.0e3):
    net = repro.Netlist("cache-testbed")
    net.port("in", "n1")
    for k in range(1, 9):
        value = r_last if k == 8 else 1.0e3
        net.resistor(f"R{k}", f"n{k}", f"n{k + 1}", value)
        net.capacitor(f"C{k}", f"n{k + 1}", "0", 1.0e-12)
    net.resistor("Rload", "n9", "0", 2.0e3)  # nonsingular G
    return repro.assemble_mna(net)


class TestFingerprint:
    def test_deterministic(self):
        a = fingerprint_system(ladder_system())
        b = fingerprint_system(ladder_system())
        assert a == b

    def test_element_perturbation_changes_key(self):
        base = reduction_key(ladder_system(), engine="sympvl", order=6)
        bumped = reduction_key(
            ladder_system(r_last=1.0e3 * (1 + 1e-9)),
            engine="sympvl", order=6,
        )
        assert base != bumped

    def test_option_changes_key(self):
        system = ladder_system()
        base = reduction_key(
            system, engine="sympvl", order=6, options={"shift": "auto"}
        )
        assert base != reduction_key(
            system, engine="sympvl", order=7, options={"shift": "auto"}
        )
        assert base != reduction_key(
            system, engine="sympvl", order=6, options={"shift": 0.0}
        )
        assert base != reduction_key(
            system, engine="sypvl", order=6, options={"shift": "auto"}
        )

    def test_version_changes_key(self):
        system = ladder_system()
        assert reduction_key(
            system, engine="sympvl", order=6, version="1.0.0"
        ) != reduction_key(
            system, engine="sympvl", order=6, version="1.0.1"
        )


class TestEngineMemoryCache:
    def test_repeat_reduction_hits(self):
        engine = Engine()
        system = ladder_system()
        first = engine.reduce(system, 6)
        second = engine.reduce(system, 6)
        assert second is first
        assert engine.cache.stats.hits == 1
        assert engine.cache.stats.misses == 1
        assert engine.stats_.reductions == 1

    def test_rebuilt_identical_netlist_hits(self):
        """Content addressing: a *different* MNASystem object with the
        same matrices maps to the same entry."""
        engine = Engine()
        engine.reduce(ladder_system(), 6)
        engine.reduce(ladder_system(), 6)
        assert engine.cache.stats.hits == 1

    def test_perturbed_element_misses(self):
        engine = Engine()
        engine.reduce(ladder_system(), 6)
        engine.reduce(ladder_system(r_last=1.1e3), 6)
        assert engine.cache.stats.hits == 0
        assert engine.cache.stats.misses == 2
        assert engine.stats_.reductions == 2

    def test_changed_option_misses(self):
        engine = Engine()
        system = ladder_system()
        engine.reduce(system, 6, shift="auto")
        engine.reduce(system, 6, shift=0.0)
        assert engine.cache.stats.hits == 0

    def test_use_cache_false_bypasses(self):
        engine = Engine()
        system = ladder_system()
        a = engine.reduce(system, 6, use_cache=False)
        b = engine.reduce(system, 6, use_cache=False)
        assert a is not b
        assert engine.cache.stats.lookups == 0

    def test_lru_eviction_counted(self):
        engine = Engine(cache=ReductionCache(max_entries=1))
        engine.reduce(ladder_system(), 6)
        engine.reduce(ladder_system(r_last=2.0e3), 6)
        assert engine.cache.stats.evictions == 1
        # first entry evicted: reducing it again misses
        engine.reduce(ladder_system(), 6)
        assert engine.cache.stats.hits == 0


#: the default-options key of the damped bus below; pinned so that disk
#: caches written by earlier releases stay warm
GOLDEN_KEY = "3b5731ce90af9d2a25a218a291abfb89fd7fa19140a46ae4f13cfafb4a1d9655"


def damped_bus():
    return repro.assemble_mna(
        repro.coupled_rc_bus(3, n_segments=10, driver_resistance=100.0)
    )


class TestGoldenKey:
    def test_default_reduction_key_is_stable(self):
        system = damped_bus()
        engine = Engine(version="golden")
        engine.reduce(system, 12)
        assert list(engine.cache._entries) == [GOLDEN_KEY]
        assert reduction_key(
            system, engine="sympvl", order=12,
            options={"shift": "auto"}, version="golden",
        ) == GOLDEN_KEY

    def test_stale_backend_env_vars_are_inert(self, monkeypatch):
        """``REPRO_BACKEND`` / ``REPRO_DTYPE`` left in an environment
        change nothing: same key, complex128 output, bitwise-equal values."""
        system = damped_bus()
        s = 1j * np.logspace(6, 10, 41)
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        monkeypatch.delenv("REPRO_DTYPE", raising=False)
        clean = Engine(version="golden")
        reference = clean.sweep(clean.reduce(system, 12), s).z

        monkeypatch.setenv("REPRO_BACKEND", "torch")
        monkeypatch.setenv("REPRO_DTYPE", "float32")
        engine = Engine(version="golden")
        z = engine.sweep(engine.reduce(system, 12), s).z
        assert list(engine.cache._entries) == [GOLDEN_KEY]
        assert z.dtype == np.complex128
        assert np.array_equal(z, reference)


class TestDiskCache:
    def test_survives_fresh_engine(self, tmp_path):
        system = ladder_system()
        first = Engine(cache_dir=tmp_path)
        model = first.reduce(system, 6)
        assert first.cache.stats.disk_writes == 1

        fresh = Engine(cache_dir=tmp_path)
        reloaded = fresh.reduce(system, 6)
        assert fresh.cache.stats.disk_hits == 1
        assert fresh.stats_.reductions == 0  # no re-reduction ran
        assert np.allclose(reloaded.t, model.t)
        assert np.allclose(reloaded.rho, model.rho)
        s = 1j * np.logspace(6, 10, 7)
        assert np.allclose(reloaded.impedance(s), model.impedance(s))

    def test_version_bump_invalidates(self, tmp_path):
        system = ladder_system()
        Engine(cache_dir=tmp_path, version="1.0.0").reduce(system, 6)

        upgraded = Engine(cache_dir=tmp_path, version="1.0.1")
        upgraded.reduce(system, 6)
        assert upgraded.cache.stats.disk_hits == 0
        assert upgraded.cache.stats.misses == 1
        assert upgraded.stats_.reductions == 1

    def test_clear_removes_entries(self, tmp_path):
        engine = Engine(cache_dir=tmp_path)
        engine.reduce(ladder_system(), 6)
        assert len(engine.cache.disk_entries()) == 1
        removed = engine.cache.clear()
        assert removed == 1
        assert engine.cache.disk_entries() == []
        assert len(engine.cache) == 0

    def test_corrupt_archive_treated_as_miss(self, tmp_path):
        system = ladder_system()
        engine = Engine(cache_dir=tmp_path)
        engine.reduce(system, 6)
        [path] = engine.cache.disk_entries()
        path.write_bytes(b"not an npz archive")

        fresh = Engine(cache_dir=tmp_path)
        fresh.reduce(system, 6)
        assert fresh.stats_.reductions == 1  # re-reduced, no crash
        assert fresh.cache.stats.disk_hits == 0

    def test_congruence_model_memory_only(self, tmp_path):
        """Models without .npz serialization cache in memory, and the
        missing disk layer is not an error."""
        engine = Engine(cache_dir=tmp_path)
        system = ladder_system()
        model = engine.reduce(system, 6, engine="arnoldi")
        assert engine.cache.disk_entries() == []
        again = engine.reduce(system, 6, engine="arnoldi")
        assert again is model
        assert engine.cache.stats.hits == 1

    def test_describe_counts(self, tmp_path):
        engine = Engine(cache_dir=tmp_path)
        engine.reduce(ladder_system(), 6)
        info = engine.cache.describe()
        assert info["disk_entries"] == 1
        assert info["disk_bytes"] > 0
        assert info["memory_entries"] == 1
        assert info["cache_dir"] == str(tmp_path)


class TestValidation:
    def test_unknown_engine_rejected(self):
        with pytest.raises(repro.errors.ReductionError, match="unknown"):
            Engine().reduce(ladder_system(), 6, engine="bogus")

    def test_cache_and_cache_dir_exclusive(self, tmp_path):
        with pytest.raises(ValueError):
            Engine(cache=ReductionCache(), cache_dir=tmp_path)

    def test_bad_max_entries(self):
        with pytest.raises(ValueError):
            ReductionCache(max_entries=0)
