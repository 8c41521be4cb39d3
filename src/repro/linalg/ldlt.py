"""Dense symmetric-indefinite ``L D L^T`` factorization (Bunch-Kaufman).

General RLC circuits have symmetric *indefinite* MNA matrices (eq. 3),
so the SyMPVL factorization ``G = M J M^T`` (paper eq. 15 / Algorithm 1
input) needs a symmetric pivoting factorization where ``J`` is block
diagonal with 1x1 and 2x2 blocks.  This module implements the classic
Bunch-Kaufman partial-pivoting algorithm from scratch (Golub & Van Loan
section 4.4, the paper's reference [9]); the factorization facade can
alternatively delegate to LAPACK via :func:`scipy.linalg.ldl`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import FactorizationError

__all__ = ["BlockDiagonal", "LDLTFactorization", "bunch_kaufman"]

#: Bunch-Kaufman pivot-choice constant, minimizes element growth bound
_ALPHA = (1.0 + math.sqrt(17.0)) / 8.0


class BlockDiagonal:
    """A block-diagonal matrix with 1x1 and 2x2 symmetric blocks.

    This is the matrix ``J`` of the paper's factorization
    ``G = M J M^T``.  It is stored as arrays so that products and solves
    are a few NumPy operations instead of a loop over the blocks:

    * ``diag[i]`` is the diagonal entry ``J[i, i]`` -- the pivot of a
      1x1 block, or the ``a``/``d`` entry of a 2x2 block
      ``[[a, b], [b, d]]``;
    * ``pairs[k]`` is the first index of the ``k``-th 2x2 block;
    * ``off[k]`` is its off-diagonal entry ``b``.
    """

    def __init__(self, diag, pairs=(), off=()):
        self.diag = np.asarray(diag, dtype=float)
        self.pairs = np.asarray(pairs, dtype=np.intp)
        self.off = np.asarray(off, dtype=float)
        # the 2x2 blocks as a (k, 2, 2) stack over their (k, 2) row pairs
        self._pair_rows = np.stack([self.pairs, self.pairs + 1], axis=1)
        self._pair_blocks = self.diag[self._pair_rows][:, :, None] * np.eye(2)
        self._pair_blocks[:, 0, 1] = self._pair_blocks[:, 1, 0] = self.off

    @classmethod
    def identity(cls, n: int) -> "BlockDiagonal":
        return cls(np.ones(n))

    @property
    def size(self) -> int:
        return self.diag.shape[0]

    @property
    def is_identity(self) -> bool:
        return self.pairs.size == 0 and bool(np.all(self.diag == 1.0))

    def to_array(self) -> np.ndarray:
        out = np.diag(self.diag)
        out[self.pairs, self.pairs + 1] = self.off
        out[self.pairs + 1, self.pairs] = self.off
        return out

    def to_sparse(self):
        import scipy.sparse as sp

        return sp.csr_matrix(self.to_array())

    @staticmethod
    def _rows(values: np.ndarray, x: np.ndarray) -> np.ndarray:
        """``values`` broadcast along the rows of a vector or matrix ``x``."""
        return values if x.ndim == 1 else values[:, None]

    def matmul(self, x: np.ndarray) -> np.ndarray:
        """Compute ``J @ x`` for a vector or matrix ``x``."""
        x = np.asarray(x)
        out = self._rows(self.diag, x) * x
        if self.pairs.size:
            # one small matmul per 2x2 block, as a loop over the blocks
            # would do: BLAS may fuse its multiply-adds, so the
            # elementwise a*x0 + b*x1 could differ in the last bit
            rows = x[self._pair_rows]
            products = self._pair_blocks @ rows.reshape(rows.shape[:2] + (-1,))
            out[self._pair_rows] = products.reshape(rows.shape)
        return out

    def solve(self, x: np.ndarray) -> np.ndarray:
        """Compute ``J^{-1} @ x`` for a vector or matrix ``x``."""
        x = np.asarray(x)
        top, bottom = self.pairs, self.pairs + 1
        pivots = self.diag.copy()
        pivots[top] = pivots[bottom] = 1.0  # rows of 2x2 blocks: below
        if np.any(pivots == 0.0):
            raise FactorizationError(
                "singular 1x1 block in J; use a nonzero expansion shift"
            )
        a, b, d = self.diag[top], self.off, self.diag[bottom]
        det = a * d - b * b
        if np.any(det == 0.0):
            raise FactorizationError(
                "singular 2x2 block in J; use a nonzero expansion shift"
            )
        out = x / self._rows(pivots, x)
        if top.size:
            x0, x1 = x[top], x[bottom]
            a, b, d, det = (self._rows(v, x) for v in (a, b, d, det))
            out[top] = (d * x0 - b * x1) / det
            out[bottom] = (-b * x0 + a * x1) / det
        return out

    def eigenvalues(self) -> np.ndarray:
        """All ``size`` eigenvalues of ``J`` (unordered)."""
        eigs = self.diag.copy()
        if self.pairs.size:
            eigs[self._pair_rows] = np.linalg.eigvalsh(self._pair_blocks)
        return eigs

    def inertia(self) -> tuple[int, int, int]:
        """(positive, negative, zero) eigenvalue counts of ``J``."""
        eigs = self.eigenvalues()
        return (
            int((eigs > 0).sum()),
            int((eigs < 0).sum()),
            int((eigs == 0).sum()),
        )


@dataclass(frozen=True)
class LDLTFactorization:
    """``P A P^T = L J L^T`` with unit lower-triangular ``L``.

    ``perm`` maps permuted index to original index (row ``i`` of the
    permuted matrix is row ``perm[i]`` of ``A``), so
    ``A = M J M^T`` with ``M[perm[i], :] = L[i, :]``.
    """

    lower: np.ndarray
    j: BlockDiagonal
    perm: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """Recompose ``A`` (testing aid)."""
        core = self.lower @ self.j.to_array() @ self.lower.T
        out = np.empty_like(core)
        out[np.ix_(self.perm, self.perm)] = core
        return out


def bunch_kaufman(a: np.ndarray, *, monitor=None) -> LDLTFactorization:
    """Bunch-Kaufman symmetric-indefinite factorization of dense ``a``.

    Returns :class:`LDLTFactorization` with ``P a P^T = L J L^T``.
    When a health ``monitor`` is supplied, the pivot-block census and
    eigenvalue extrema of ``J`` are recorded (``factor.pivots``).

    Raises
    ------
    FactorizationError
        If the matrix is exactly singular at a pivot step (both the 1x1
        and 2x2 pivot candidates vanish).
    """
    a = np.array(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise FactorizationError("matrix must be square")
    if n and not np.allclose(a, a.T, rtol=1e-10, atol=0.0):
        raise FactorizationError("matrix must be symmetric")

    perm = np.arange(n, dtype=np.intp)
    lower = np.eye(n)
    diag = np.zeros(n)
    pairs: list[int] = []
    off: list[float] = []

    def swap(i: int, j: int, computed: int) -> None:
        """Symmetric row/col swap; only the first ``computed`` columns of
        ``lower`` hold factor entries and participate in the swap."""
        if i == j:
            return
        a[[i, j], :] = a[[j, i], :]
        a[:, [i, j]] = a[:, [j, i]]
        lower[[i, j], :computed] = lower[[j, i], :computed]
        perm[[i, j]] = perm[[j, i]]

    k = 0
    while k < n:
        rest = n - k
        if rest == 1:
            pivot_size = 1
        else:
            column = np.abs(a[k + 1 :, k])
            r_rel = int(np.argmax(column))
            lam = column[r_rel]
            r = k + 1 + r_rel
            akk = abs(a[k, k])
            if lam == 0.0:
                pivot_size = 1  # column already diagonal here
            elif akk >= _ALPHA * lam:
                pivot_size = 1
            else:
                col_r = np.abs(a[k:, r])
                col_r[r - k] = 0.0
                sigma = col_r.max()
                if akk * sigma >= _ALPHA * lam * lam:
                    pivot_size = 1
                elif abs(a[r, r]) >= _ALPHA * sigma:
                    swap(k, r, k)
                    pivot_size = 1
                else:
                    swap(k + 1, r, k)
                    pivot_size = 2

        if pivot_size == 1:
            d = a[k, k]
            if d == 0.0:
                if np.abs(a[k:, k:]).max() == 0.0:
                    # trailing block is exactly zero: factor is done with
                    # zero 1x1 blocks (G singular), already zero in ``diag``
                    break
                if monitor is not None:
                    monitor.record(
                        "factor.failure", method="bunch-kaufman-python",
                        step=k, pivot=0.0,
                    )
                raise FactorizationError(
                    f"zero pivot at step {k}; matrix is singular"
                )
            if k + 1 < n:
                column = a[k + 1 :, k] / d
                a[k + 1 :, k + 1 :] -= np.outer(column, a[k + 1 :, k])
                lower[k + 1 :, k] = column
                a[k + 1 :, k] = 0.0
                a[k, k + 1 :] = 0.0
            diag[k] = d
            k += 1
        else:
            block = a[k : k + 2, k : k + 2].copy()
            det = block[0, 0] * block[1, 1] - block[0, 1] * block[1, 0]
            if det == 0.0:
                if monitor is not None:
                    monitor.record(
                        "factor.failure", method="bunch-kaufman-python",
                        step=k, pivot=0.0, pivot_size=2,
                    )
                raise FactorizationError(
                    f"singular 2x2 pivot at step {k}; matrix is singular"
                )
            if k + 2 < n:
                e = a[k + 2 :, k : k + 2]
                linv = np.linalg.solve(block.T, e.T).T  # E @ inv(block)
                a[k + 2 :, k + 2 :] -= linv @ e.T
                lower[k + 2 :, k : k + 2] = linv
                a[k + 2 :, k : k + 2] = 0.0
                a[k : k + 2, k + 2 :] = 0.0
            diag[k], diag[k + 1] = block[0, 0], block[1, 1]
            pairs.append(k)
            off.append(0.5 * (block[0, 1] + block[1, 0]))
            k += 2

    j = BlockDiagonal(diag, pairs, off)
    if monitor is not None and n:
        abs_eigs = np.abs(j.eigenvalues())
        largest = float(abs_eigs.max())
        smallest = float(abs_eigs.min())
        monitor.record(
            "factor.pivots",
            method="bunch-kaufman-python",
            size=n,
            one_by_one=n - 2 * len(pairs),
            two_by_two=len(pairs),
            min_pivot=smallest,
            max_pivot=largest,
            margin=smallest / max(largest, 1e-300),
        )
    return LDLTFactorization(lower=lower, j=j, perm=perm)
