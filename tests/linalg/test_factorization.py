"""Unit tests for the G = M J M^T factorization facade."""

import numpy as np
import pytest
import scipy.sparse as sp

import repro
from repro.errors import FactorizationError
from repro.linalg.factorization import (
    FACTORIZATION_METHODS,
    SuperLUFactorization,
    factor_symmetric,
    resolve_factor_method,
)
from repro.robustness import HealthMonitor


def reconstruct_g(fact, n):
    """Recompose G = M J M^T using only the facade interface."""
    eye = np.eye(n)
    m_inv = fact.solve_m(eye)  # M^{-1}
    m = np.linalg.inv(m_inv)
    j = fact.apply_j(eye)
    return m @ j @ m.T


def spd_sparse(n, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return sp.csc_matrix(a @ a.T + n * np.eye(n))


def indefinite_diag_dominant(n, seed=4):
    """Indefinite but diagonally pivotable: mixed-sign dominant diagonal."""
    rng = np.random.default_rng(seed)
    signs = rng.choice([-3.0, 5.0], size=n)
    off = sp.diags([np.full(n - 1, 0.1), np.full(n - 1, 0.1)], [1, -1])
    return sp.csc_matrix(sp.diags(signs) + off)


def singular_chain_laplacian(n=12):
    """PSD singular (constant-vector null space)."""
    g = sp.diags(
        [np.full(n - 1, -1.0), np.full(n, 2.0), np.full(n - 1, -1.0)],
        [-1, 0, 1],
    ).tolil()
    g[0, 0] = 1.0
    g[-1, -1] = 1.0
    return g.tocsc()


class TestMethods:
    @pytest.mark.parametrize(
        "method",
        ["sparse-cholesky", "dense-cholesky", "ldlt", "ldlt-python", "superlu"],
    )
    def test_reconstruction(self, method):
        g = spd_sparse(18, seed=1)
        fact = factor_symmetric(g, method=method)
        recon = reconstruct_g(fact, 18)
        assert np.abs(recon - g.toarray()).max() < 1e-8 * np.abs(g.toarray()).max()

    @pytest.mark.parametrize("method", ["ldlt", "ldlt-python"])
    def test_indefinite(self, method):
        system = repro.assemble_mna(repro.rlc_line(6), "mna")
        g = system.shifted_g(1e9).toarray()
        fact = factor_symmetric(g, method=method)
        recon = reconstruct_g(fact, g.shape[0])
        assert np.abs(recon - g).max() < 1e-6 * np.abs(g).max()
        assert not fact.j_is_identity

    def test_solve_roundtrip(self):
        g = spd_sparse(20, seed=2)
        fact = factor_symmetric(g, method="sparse-cholesky")
        b = np.random.default_rng(0).standard_normal(20)
        x = fact.solve(b)
        assert np.abs(g @ x - b).max() < 1e-8

    def test_solve_mt_is_transpose_solve(self):
        g = spd_sparse(15, seed=3)
        fact = factor_symmetric(g, method="sparse-cholesky")
        eye = np.eye(15)
        m_inv = fact.solve_m(eye)
        mt_inv = fact.solve_mt(eye)
        assert np.allclose(mt_inv, m_inv.T, atol=1e-10)

    def test_unknown_method(self):
        with pytest.raises(FactorizationError, match="unknown"):
            factor_symmetric(np.eye(3), method="bogus")


class TestAuto:
    def test_spd_uses_cholesky(self):
        fact = factor_symmetric(spd_sparse(10))
        assert "cholesky" in fact.method
        assert fact.j_is_identity

    def test_indefinite_falls_back_to_ldlt(self):
        g = repro.assemble_mna(repro.rlc_line(5), "mna").shifted_g(1e9)
        fact = factor_symmetric(g)
        assert "bunch-kaufman" in fact.method

    def test_assume_definite_true_propagates_failure(self):
        g = sp.csc_matrix(np.diag([1.0, -1.0]))
        with pytest.raises(FactorizationError):
            factor_symmetric(g, assume_definite=True)

    def test_assume_definite_false_skips_cholesky(self):
        fact = factor_symmetric(spd_sparse(8), assume_definite=False)
        assert "bunch-kaufman" in fact.method

    def test_large_sparse_spd_uses_sparse_path(self):
        # a sparse pattern goes to the compiled sparse tier at every
        # size; the definite case keeps J = I
        g = repro.assemble_mna(repro.rc_mesh(16, 16)).G + 1e-3 * sp.eye(256)
        fact = factor_symmetric(g.tocsc())
        assert fact.method == "superlu"
        assert fact.j_is_identity
        small = grid_laplacian(6)  # 36 unknowns, density 0.13 -> dense
        assert factor_symmetric(small).method == "dense-cholesky"
        ladder = grid_laplacian(12)  # 144 unknowns, density 0.03
        assert factor_symmetric(ladder).method == "superlu"

    def test_dense_pattern_sparse_matrix_uses_lapack(self):
        # PEEC-like: stored sparse but fully populated, above the old
        # 200-unknown cut -- LAPACK Cholesky, or Bunch-Kaufman when the
        # caller says the matrix is indefinite
        g = spd_sparse(240, seed=5)
        assert g.nnz == 240 * 240
        fact = factor_symmetric(g)
        assert fact.method == "dense-cholesky"
        assert fact.j_is_identity
        fact = factor_symmetric(g, assume_definite=False)
        assert fact.method == "bunch-kaufman-scipy"

    def test_method_event_names_choice(self):
        monitor = HealthMonitor()
        fact = factor_symmetric(grid_laplacian(20), monitor=monitor)
        events = monitor.by_category("factor.method")
        assert [e.data["method"] for e in events] == [fact.method]
        assert events[0].data["size"] == 400
        assert events[0].data["j_identity"] is True

    def test_singular_matrix_detected(self):
        # chain Laplacian: PSD singular -> both paths must refuse
        n = 12
        g = sp.diags(
            [np.full(n - 1, -1.0), np.full(n, 2.0), np.full(n - 1, -1.0)],
            [-1, 0, 1],
        ).tolil()
        g[0, 0] = 1.0
        g[-1, -1] = 1.0
        with pytest.raises(FactorizationError):
            factor_symmetric(g.tocsc())

    def test_dense_limit_error_is_actionable(self):
        # forcing a dense method on an over-limit matrix must name the
        # sparse alternatives and the environment override
        big = sp.eye(7000, format="csc") * -1.0
        with pytest.raises(FactorizationError, match="too large") as info:
            factor_symmetric(big, method="ldlt")
        message = str(info.value)
        assert "superlu" in message
        assert "REPRO_FACTORIZATION" in message

    def test_large_indefinite_now_handled_by_superlu(self):
        # pre-scalable-tier behavior was a dead-end "too large" error;
        # diagonally pivotable indefinite matrices now factor via SuperLU
        big = sp.eye(7000, format="csc") * -1.0
        fact = factor_symmetric(big)
        assert fact.method == "superlu"
        assert not fact.j_is_identity

    def test_auto_prefers_scalable_tier_above_threshold(self):
        g = grid_laplacian(50)  # 2500 > _SCALABLE_LIMIT
        fact = factor_symmetric(g)
        assert fact.method == "superlu"

    def test_env_override_changes_selection(self, monkeypatch):
        g = grid_laplacian(50)
        monkeypatch.setenv("REPRO_FACTORIZATION", "sparse-cholesky")
        fact = factor_symmetric(g)
        assert fact.method == "sparse-cholesky"

    def test_env_override_rejects_unknown(self, monkeypatch):
        # a method name that is no longer supported fails like any other
        for name in ("bogus", "cholmod"):
            monkeypatch.setenv("REPRO_FACTORIZATION", name)
            with pytest.raises(
                FactorizationError,
                match=f"unknown factorization method '{name}' "
                r"\(from the REPRO_FACTORIZATION environment variable\)",
            ):
                factor_symmetric(spd_sparse(10))

    def test_explicit_method_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FACTORIZATION", "superlu")
        fact = factor_symmetric(spd_sparse(10), method="dense-cholesky")
        assert fact.method == "dense-cholesky"


def grid_laplacian(k, shift=1e-3):
    """SPD 5-point grid Laplacian on a k x k mesh."""
    n = k * k
    ones = np.ones(n)
    g = (
        sp.diags(4.0 * ones)
        - sp.diags([np.ones(n - 1), np.ones(n - 1)], [1, -1])
        - sp.diags([np.ones(n - k), np.ones(n - k)], [k, -k])
    )
    return sp.csc_matrix(g + shift * sp.eye(n))


class TestResolveFactorMethod:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_FACTORIZATION", "sparse-cholesky")
        assert resolve_factor_method("superlu") == "superlu"

    def test_auto_defers_to_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FACTORIZATION", "superlu")
        assert resolve_factor_method("auto") == "superlu"
        assert resolve_factor_method(None) == "superlu"

    def test_auto_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FACTORIZATION", raising=False)
        assert resolve_factor_method("auto") == "auto"

    def test_methods_tuple_covers_known_backends(self):
        for name in ("superlu", "sparse-cholesky", "auto"):
            assert name in FACTORIZATION_METHODS


class TestSuperLU:
    def test_definite_j_identity_and_monitor_event(self):
        monitor = HealthMonitor()
        g = spd_sparse(40, seed=7)
        fact = factor_symmetric(g, method="superlu", monitor=monitor)
        assert fact.method == "superlu"
        assert fact.j_is_identity
        events = monitor.by_category("factor.method")
        assert events and events[-1].data["method"] == "superlu"
        assert events[-1].data["j_identity"] is True
        pivots = monitor.by_category("factor.pivots")
        assert pivots and pivots[-1].data["method"] == "superlu"

    def test_indefinite_diagonal_pivoting(self):
        g = indefinite_diag_dominant(60)
        fact = factor_symmetric(g, method="superlu")
        assert not fact.j_is_identity
        recon = reconstruct_g(fact, 60)
        assert np.abs(recon - g.toarray()).max() < 1e-10 * np.abs(g.toarray()).max()

    def test_indefinite_needing_2x2_pivots_raises(self):
        # shifted RLC MNA needs Bunch-Kaufman 2x2 pivots: the symmetric
        # diagonal-pivot order cannot hold and the backend must say so
        g = repro.assemble_mna(repro.rlc_line(6), "mna").shifted_g(1e9)
        with pytest.raises(FactorizationError, match="symmetric pivot"):
            factor_symmetric(g.tocsc(), method="superlu")

    def test_singular_raises(self):
        monitor = HealthMonitor()
        with pytest.raises(FactorizationError, match="singular"):
            factor_symmetric(
                singular_chain_laplacian(), method="superlu", monitor=monitor
            )
        failures = monitor.by_category("factor.failure")
        assert failures and failures[-1].data["method"] == "superlu"

    def test_block_and_column_solves_agree(self):
        g = grid_laplacian(20)
        fact = SuperLUFactorization(g)
        rng = np.random.default_rng(0)
        block = rng.standard_normal((g.shape[0], 6))
        for op in (fact.solve_m, fact.solve_mt, fact.solve):
            full = op(block)
            assert full.shape == block.shape
            for col in range(block.shape[1]):
                assert np.allclose(full[:, col], op(block[:, col]), atol=1e-12)

    def test_solve_matches_direct(self):
        g = grid_laplacian(25)
        fact = SuperLUFactorization(g)
        b = np.cos(np.arange(g.shape[0], dtype=float))
        x = fact.solve(b)
        assert np.linalg.norm(g @ x - b) < 1e-10 * np.linalg.norm(b)


class TestPerMethodSingular:
    @pytest.mark.parametrize(
        "method",
        ["sparse-cholesky", "dense-cholesky", "ldlt", "ldlt-python", "superlu"],
    )
    def test_singular_input_raises(self, method):
        with pytest.raises(FactorizationError):
            factor_symmetric(singular_chain_laplacian(), method=method)

    @pytest.mark.parametrize("method", ["sparse-cholesky", "dense-cholesky"])
    def test_indefinite_input_raises_for_cholesky(self, method):
        with pytest.raises(FactorizationError):
            factor_symmetric(indefinite_diag_dominant(20), method=method)
