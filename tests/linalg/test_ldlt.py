"""Unit tests for the from-scratch Bunch-Kaufman LDL^T."""

import numpy as np
import pytest
import scipy.linalg

import repro
from repro.errors import FactorizationError
from repro.linalg.ldlt import BlockDiagonal, bunch_kaufman


def symmetric_dense(n, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return 0.5 * (a + a.T)


class TestBunchKaufman:
    @pytest.mark.parametrize("seed", range(5))
    def test_reconstruction_random(self, seed):
        a = symmetric_dense(30, seed)
        fact = bunch_kaufman(a)
        assert np.abs(fact.reconstruct() - a).max() < 1e-10 * np.abs(a).max()

    def test_unit_lower(self):
        fact = bunch_kaufman(symmetric_dense(20))
        assert np.allclose(np.diag(fact.lower), 1.0)
        assert np.allclose(np.triu(fact.lower, 1), 0.0)

    def test_inertia_matches_eigenvalues(self):
        a = symmetric_dense(40, seed=7)
        fact = bunch_kaufman(a)
        pos, neg, zero = fact.j.inertia()
        eigs = np.linalg.eigvalsh(a)
        assert pos == int((eigs > 0).sum())
        assert neg == int((eigs < 0).sum())
        assert zero == 0

    def test_spd_gives_positive_1x1_blocks(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((15, 15))
        a = a @ a.T + 15 * np.eye(15)
        fact = bunch_kaufman(a)
        pos, neg, zero = fact.j.inertia()
        assert (pos, neg, zero) == (15, 0, 0)

    def test_mna_rlc_matrix(self):
        # real indefinite circuit matrix
        system = repro.assemble_mna(repro.rlc_line(8), "mna")
        g = system.G.toarray()
        fact = bunch_kaufman(g)
        assert np.abs(fact.reconstruct() - g).max() < 1e-8 * max(np.abs(g).max(), 1)

    def test_needs_2x2_pivots_on_zero_diagonal(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        fact = bunch_kaufman(a)
        assert fact.j.pairs.tolist() == [0]
        assert np.abs(fact.reconstruct() - a).max() < 1e-14

    def test_asymmetric_rejected(self):
        with pytest.raises(FactorizationError, match="symmetric"):
            bunch_kaufman(np.array([[1.0, 2.0], [3.0, 4.0]]))

    def test_agrees_with_scipy_solve(self):
        a = symmetric_dense(25, seed=9)
        fact = bunch_kaufman(a)
        rng = np.random.default_rng(3)
        b = rng.standard_normal(25)
        # solve via our factors: P a P^T = L J L^T
        pb = b[fact.perm]
        y = scipy.linalg.solve_triangular(fact.lower, pb, lower=True,
                                          unit_diagonal=True)
        y = fact.j.solve(y)
        y = scipy.linalg.solve_triangular(fact.lower.T, y, lower=False,
                                          unit_diagonal=True)
        x = np.empty_like(y)
        x[fact.perm] = y
        assert np.abs(a @ x - b).max() < 1e-9 * np.abs(b).max()


class TestBlockDiagonal:
    def test_identity(self):
        j = BlockDiagonal.identity(4)
        assert j.is_identity
        x = np.arange(4.0)
        assert np.allclose(j.matmul(x), x)
        assert np.allclose(j.solve(x), x)

    def test_2x2_solve(self):
        block = np.array([[0.0, 2.0], [2.0, 1.0]])
        j = BlockDiagonal([0.0, 1.0], [0], [2.0])
        x = np.array([1.0, -1.0])
        assert np.allclose(block @ j.solve(x), x)

    def test_singular_block_raises(self):
        j = BlockDiagonal([0.0])
        with pytest.raises(FactorizationError, match="singular"):
            j.solve(np.ones(1))

    def test_to_array_round_trip(self):
        j = BlockDiagonal([2.0, 0.0, 3.0], [1], [1.0])
        dense = j.to_array()
        assert np.array_equal(
            dense, [[2.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 3.0]]
        )
        x = np.array([1.0, 2.0, 3.0])
        assert np.allclose(j.matmul(x), dense @ x)

    def test_matrix_argument(self):
        j = BlockDiagonal.identity(3)
        x = np.arange(6.0).reshape(3, 2)
        assert np.allclose(j.matmul(x), x)
        assert np.allclose(j.solve(x), x)
