"""Symmetric factorization facade: ``G = M J M^T`` (paper eq. 15).

The SyMPVL Lanczos process needs, for the (possibly shifted) matrix
``G``:

* solves with ``M`` and ``M^T`` (triangular),
* products and solves with the "simple" matrix ``J``.

Positive-definite ``G`` (RC/RL/LC circuit classes, paper section 2.2)
gets a Cholesky factor and ``J = I``; indefinite ``G`` (general RLC MNA)
gets a Bunch-Kaufman ``L J L^T`` with 1x1/2x2 blocks in ``J``.

A compiled sparse tier covers sparse ``G`` up to post-layout scale
(10^5-10^6 unknowns, see ``docs/SCALING.md``): a SuperLU symmetric-mode
``L D L^T`` (:class:`SuperLUFactorization`, works for definite *and*
diagonally-pivotable indefinite matrices).  All methods take matrix
(multi-column) right-hand sides so the blocked Lanczos loop does one
triangular pass per block.

``factor_symmetric(method="auto")`` routes by density: a ``G`` with at
least ``_DENSE_FILL`` of its entries stored (the PEEC ``G`` is full) goes
to LAPACK -- Cholesky unless the caller says it is indefinite, then
Bunch-Kaufman -- and any other sparse ``G`` goes to the compiled sparse
tier at every size, with dense Bunch-Kaufman as the fallback for
matrices that need 2x2 pivots.  The from-scratch ``"sparse-cholesky"``
and ``"ldlt-python"`` stay available by name as reference paths.  The
``REPRO_FACTORIZATION`` environment variable overrides ``"auto"``, and
``factor.method`` health events report which path was taken.
"""

from __future__ import annotations

import abc
import os

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.errors import FactorizationError
from repro.linalg.cholesky import SparseCholesky, sparse_cholesky
from repro.linalg.ldlt import BlockDiagonal, bunch_kaufman

__all__ = [
    "SymmetricFactorization",
    "CholeskyFactorization",
    "DenseCholeskyFactorization",
    "LDLTDenseFactorization",
    "SuperLUFactorization",
    "FACTORIZATION_METHODS",
    "factor_symmetric",
    "resolve_factor_method",
]

#: above this size, dense fallbacks are refused to avoid memory blowups
_DENSE_LIMIT = 6000

#: "auto" treats a sparse ``G`` with at least this fraction of its
#: entries stored as dense: its factor is at least as dense, and LAPACK's
#: dense kernels then beat SuperLU's sparse ones (random sparse SPD,
#: n = 100-2000, 1 BLAS thread: dense Cholesky 1.7-6x faster at 0.1)
_DENSE_FILL = 0.1

#: environment variable overriding the backend picked by ``"auto"``
_ENV_VAR = "REPRO_FACTORIZATION"

#: every method name ``factor_symmetric`` accepts (CLI choices)
FACTORIZATION_METHODS = (
    "auto",
    "sparse-cholesky",
    "dense-cholesky",
    "ldlt",
    "ldlt-python",
    "superlu",
)


def resolve_factor_method(method: str | None = "auto") -> str:
    """Effective factorization method after the environment override.

    An explicit ``method`` always wins; ``"auto"`` (or ``None``) defers
    to ``REPRO_FACTORIZATION`` when that is set and non-empty.  The
    engine folds this resolved value into its reduction cache key so a
    backend switch never aliases cached results.
    """
    if method not in (None, "auto"):
        return method
    env = os.environ.get(_ENV_VAR, "").strip().lower()
    return env if env else "auto"


def _as_csc(g: sp.spmatrix | np.ndarray) -> sp.csc_matrix:
    """CSC view of ``g`` without copying when it already is one."""
    if sp.issparse(g):
        csc = g.tocsc()  # no-op (returns self) when already CSC
    else:
        csc = sp.csc_matrix(np.asarray(g, dtype=float))
    if csc.dtype != np.float64:
        csc = csc.astype(np.float64)
    return csc


class SymmetricFactorization(abc.ABC):
    """Interface consumed by the Lanczos operator."""

    @property
    @abc.abstractmethod
    def size(self) -> int:
        """Matrix dimension ``N``."""

    @property
    @abc.abstractmethod
    def j_is_identity(self) -> bool:
        """True when ``J = I`` (definite case; Lanczos vectors orthogonal)."""

    @property
    @abc.abstractmethod
    def method(self) -> str:
        """Short label of the factorization used (for reporting)."""

    @abc.abstractmethod
    def solve_m(self, b: np.ndarray) -> np.ndarray:
        """Solve ``M x = b`` (vector or matrix right-hand side)."""

    @abc.abstractmethod
    def solve_mt(self, b: np.ndarray) -> np.ndarray:
        """Solve ``M^T x = b``."""

    @abc.abstractmethod
    def apply_j(self, x: np.ndarray) -> np.ndarray:
        """Compute ``J @ x``."""

    @abc.abstractmethod
    def solve_j(self, x: np.ndarray) -> np.ndarray:
        """Compute ``J^{-1} @ x``."""

    # convenience -------------------------------------------------------
    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve the full system ``G x = M J M^T x = b``."""
        return self.solve_mt(self.solve_j(self.solve_m(b)))


class CholeskyFactorization(SymmetricFactorization):
    """``G = (P^T L)(P^T L)^T`` from the from-scratch sparse Cholesky."""

    def __init__(self, chol: SparseCholesky):
        self._chol = chol
        n = chol.shape[0]
        self._inverse_perm = np.empty(n, dtype=np.intp)
        self._inverse_perm[chol.perm] = np.arange(n, dtype=np.intp)

    @property
    def size(self) -> int:
        return self._chol.shape[0]

    @property
    def j_is_identity(self) -> bool:
        return True

    @property
    def method(self) -> str:
        return "sparse-cholesky"

    def solve_m(self, b: np.ndarray) -> np.ndarray:
        # M = P^T L  =>  M x = b  <=>  L x = P b
        return self._chol.solve_lower(np.asarray(b)[self._chol.perm])

    def solve_mt(self, b: np.ndarray) -> np.ndarray:
        # M^T = L^T P  =>  L^T y = b, x = P^T y
        y = self._chol.solve_upper(np.asarray(b))
        return y[self._inverse_perm]

    def apply_j(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x)

    def solve_j(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x)


class DenseCholeskyFactorization(SymmetricFactorization):
    """``G = L L^T`` from LAPACK ``potrf`` (dense or small problems).

    Pivots below the relative floor of :func:`dense_cholesky` (the
    from-scratch reference) are refused the same way, so a numerically
    singular ``G`` raises :class:`FactorizationError` and shift
    resolution moves to eq. 26.
    """

    def __init__(self, g_dense: np.ndarray, *, monitor=None):
        g_dense = np.asarray(g_dense, dtype=float)
        n = g_dense.shape[0]
        floor = 1e-12 * float(np.abs(np.diag(g_dense)).max()) if n else 0.0
        lower, info = scipy.linalg.lapack.dpotrf(g_dense, lower=1, clean=1)
        pivots = np.diag(lower) ** 2
        if info == 0:
            negligible = np.flatnonzero(~(pivots > floor))
            if negligible.size:
                info = negligible[0] + 1
        if info != 0:
            step = abs(int(info)) - 1
            if monitor is not None:
                monitor.record(
                    "factor.failure", method="dense-cholesky", step=step,
                    floor=floor,
                )
            raise FactorizationError(
                f"non-positive or negligible pivot at step {step}; matrix "
                "is not (numerically) positive definite -- use "
                "method='ldlt' for an indefinite matrix or a nonzero "
                "expansion shift (paper eq. 26) for a singular one"
            )
        if monitor is not None and n:
            min_pivot, max_pivot = float(pivots.min()), float(pivots.max())
            monitor.record(
                "factor.pivots", method="dense-cholesky", size=n,
                min_pivot=min_pivot, max_pivot=max_pivot, floor=floor,
                margin=(min_pivot - floor) / max(max_pivot, 1e-300),
            )
        self._lower = lower

    @property
    def size(self) -> int:
        return self._lower.shape[0]

    @property
    def j_is_identity(self) -> bool:
        return True

    @property
    def method(self) -> str:
        return "dense-cholesky"

    def solve_m(self, b: np.ndarray) -> np.ndarray:
        return scipy.linalg.solve_triangular(
            self._lower, np.asarray(b), lower=True, check_finite=False
        )

    def solve_mt(self, b: np.ndarray) -> np.ndarray:
        return scipy.linalg.solve_triangular(
            self._lower, np.asarray(b), lower=True, trans="T",
            check_finite=False,
        )

    def apply_j(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x)

    def solve_j(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x)


class LDLTDenseFactorization(SymmetricFactorization):
    """``G = M J M^T`` with ``M = P^T L`` from Bunch-Kaufman pivoting.

    ``engine="scipy"`` uses LAPACK (``scipy.linalg.ldl``) for speed;
    ``engine="python"`` uses the from-scratch implementation in
    :mod:`repro.linalg.ldlt` (cross-validated in the tests).
    """

    #: relative threshold below which a pivot block flags (near) singularity
    _PIVOT_RTOL = 1e-12

    def __init__(
        self, g_dense: np.ndarray, *, engine: str = "scipy", monitor=None
    ):
        n = g_dense.shape[0]
        if engine == "python":
            fact = bunch_kaufman(g_dense, monitor=monitor)
            self._lower = fact.lower
            self._perm = fact.perm
            self._j = fact.j
        elif engine == "scipy":
            lu, d, perm = scipy.linalg.ldl(g_dense, lower=True)
            # lu[perm] is unit lower triangular; d is block diagonal
            self._lower = lu[perm]
            self._perm = np.asarray(perm, dtype=np.intp)
            self._j = _blocks_from_dense(d)
        else:
            raise FactorizationError(f"unknown LDLT engine {engine!r}")
        self._engine = engine
        self._check_pivots(monitor)
        self._inverse_perm = np.empty(n, dtype=np.intp)
        self._inverse_perm[self._perm] = np.arange(n, dtype=np.intp)

    def _check_pivots(self, monitor=None) -> None:
        """Reject (numerically) singular matrices.

        LAPACK's ``sytrf`` happily returns near-zero pivots for singular
        inputs; for circuits that means a frequency shift is required
        (paper eq. 26), so surface it as a FactorizationError that the
        shift-resolution logic catches.
        """
        extremes = np.abs(self._j.eigenvalues())
        if not extremes.size:
            return
        smallest = float(extremes.min())
        largest = float(extremes.max())
        ratio = smallest / max(largest, 1e-300)
        if monitor is not None:
            monitor.record(
                "factor.pivots",
                method=f"bunch-kaufman-{self._engine}",
                size=self._j.size,
                min_pivot=smallest,
                max_pivot=largest,
                margin=ratio,
            )
        if smallest <= self._PIVOT_RTOL * max(largest, 1e-300):
            if monitor is not None:
                monitor.record(
                    "factor.failure",
                    method="bunch-kaufman",
                    pivot=smallest,
                    ratio=ratio,
                )
            raise FactorizationError(
                f"matrix is numerically singular (pivot ratio "
                f"{ratio:.2e}); "
                "use a nonzero expansion shift"
            )

    @property
    def size(self) -> int:
        return self._lower.shape[0]

    @property
    def j_is_identity(self) -> bool:
        return self._j.is_identity

    @property
    def j(self) -> BlockDiagonal:
        return self._j

    @property
    def method(self) -> str:
        return f"bunch-kaufman-{self._engine}"

    def solve_m(self, b: np.ndarray) -> np.ndarray:
        # M = P^T L: rows of M in original order; M x = b <=> L x = P b.
        # L is finite once the pivots passed, so skip the O(N^2) scan
        # scipy would repeat on every solve
        return scipy.linalg.solve_triangular(
            self._lower, np.asarray(b)[self._perm], lower=True,
            unit_diagonal=True, check_finite=False,
        )

    def solve_mt(self, b: np.ndarray) -> np.ndarray:
        y = scipy.linalg.solve_triangular(
            self._lower, np.asarray(b), lower=True, trans="T",
            unit_diagonal=True, check_finite=False,
        )
        return y[self._inverse_perm]

    def apply_j(self, x: np.ndarray) -> np.ndarray:
        return self._j.matmul(x)

    def solve_j(self, x: np.ndarray) -> np.ndarray:
        return self._j.solve(x)


def _row_scale(x: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Row-wise ``x * scale`` for vector or matrix ``x``."""
    if x.ndim == 1:
        return x * scale
    return x * scale[:, None]


class SuperLUFactorization(SymmetricFactorization):
    """``G = M J M^T`` from SuperLU's symmetric-mode ``L D L^T``.

    ``splu`` with ``SymmetricMode`` and a zero diagonal-pivot threshold
    keeps the fill-reducing ``MMD_AT_PLUS_A`` ordering symmetric
    (``perm_r == perm_c``), so the returned factors satisfy
    ``P G P^T = L U`` with ``U = D L^T`` and diagonal ``D``.  Splitting
    ``D = S |D|`` gives

    ``M = P^T L |D|^{1/2}``, ``J = S = sign(D)``,

    which is a *sparse* ``L J L^T`` in the sense of paper eq. 15: it
    covers the definite circuit classes (``J = I``) and the diagonally
    pivotable indefinite ones (``J = diag(+-1)``), at compiled-code
    speed and near-minimal fill.  Matrices that need 2x2 Bunch-Kaufman
    pivots (zero diagonal entries, e.g. unshifted RLC MNA) make SuperLU
    abandon the symmetric order or leave a failing probe -- both raise
    :class:`FactorizationError` so callers fall back, exactly like the
    dense path does for singular inputs.

    Triangular solves run through a second, NATURAL-ordered ``splu`` of
    the unit-lower factor ``L`` itself (zero extra fill), which is much
    faster than ``spsolve_triangular``, supports transposed solves, and
    takes matrix right-hand sides -- the blocked Lanczos loop does one
    compiled pass per block instead of one per column.
    """

    #: probe tolerance matching :func:`repro.linalg.utils.checked_splu`
    _PROBE_RTOL = 1e-8

    def __init__(
        self, g: sp.spmatrix | np.ndarray, *, monitor=None
    ):
        csc = _as_csc(g)
        n = csc.shape[0]

        def fail(message: str, **extra) -> FactorizationError:
            if monitor is not None:
                monitor.record("factor.failure", method="superlu", **extra)
            return FactorizationError(message)

        try:
            lu = spla.splu(
                csc,
                diag_pivot_thresh=0.0,
                permc_spec="MMD_AT_PLUS_A",
                options={"SymmetricMode": True},
            )
        except RuntimeError as exc:
            raise fail(
                f"SuperLU LDL^T factorization failed: {exc}; the matrix "
                "is singular at this expansion point -- use a nonzero "
                "shift (paper eq. 26)",
                reason="splu",
            ) from exc
        if not np.array_equal(lu.perm_r, lu.perm_c):
            raise fail(
                "SuperLU abandoned the symmetric pivot order "
                "(off-diagonal pivoting was required); the matrix has no "
                "diagonal LDL^T -- use the dense Bunch-Kaufman path or a "
                "different expansion shift",
                reason="asymmetric-pivoting",
            )
        d = np.asarray(lu.U.diagonal(), dtype=float)
        if not np.all(np.isfinite(d)) or np.any(d == 0.0):
            raise fail(
                "SuperLU produced a zero or non-finite pivot; the matrix "
                "is numerically singular -- use a nonzero expansion shift",
                reason="zero-pivot",
            )
        abs_d = np.abs(d)
        if monitor is not None:
            monitor.record(
                "factor.pivots",
                method="superlu",
                size=n,
                min_pivot=float(abs_d.min()),
                max_pivot=float(abs_d.max()),
                margin=float(abs_d.min() / max(abs_d.max(), 1e-300)),
            )

        # deterministic solve probe (same heuristic as checked_splu):
        # near-singular inputs factor "successfully" with tiny pivots but
        # amplify a unit-scale right-hand side beyond any usable
        # conditioning -- reject them here so shift resolution can react.
        probe = np.cos(np.arange(1, n + 1, dtype=float))
        x = lu.solve(probe)
        g_scale = float(np.abs(csc.data).max()) if csc.nnz else 0.0
        amplification = float(np.abs(x).max()) * g_scale
        if not np.all(np.isfinite(x)) or (
            amplification > 1.0 / self._PROBE_RTOL**1.5
        ):
            raise fail(
                "matrix is numerically singular (SuperLU probe "
                f"amplification {amplification:.2e}); use a nonzero "
                "expansion shift",
                reason="probe",
                amplification=amplification,
            )

        self._signs = np.where(d > 0.0, 1.0, -1.0)
        self._j_identity = bool(np.all(d > 0.0))
        self._sqrt_d = np.sqrt(abs_d)
        self._inv_sqrt_d = 1.0 / self._sqrt_d
        # scipy's reconstruction is ``A[q][:, q] = L U`` with
        # ``q[perm_r[i]] = i``: the permutation ``P`` in
        # ``P G P^T = L D L^T`` gathers through the *inverse* of
        # ``perm_r``
        row_perm = np.asarray(lu.perm_r, dtype=np.intp)
        self._perm = np.empty(n, dtype=np.intp)
        self._perm[row_perm] = np.arange(n, dtype=np.intp)
        self._inverse_perm = row_perm
        lower = lu.L.tocsc()
        # release the SuperLU object before refactoring L: it holds both
        # L and U (~2x the memory actually needed at 10^6 nodes)
        del lu
        self._lsolver = spla.splu(
            lower,
            permc_spec="NATURAL",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": False},
        )
        self._n = n

    @property
    def size(self) -> int:
        return self._n

    @property
    def j_is_identity(self) -> bool:
        return self._j_identity

    @property
    def j_signs(self) -> np.ndarray:
        """The ``+-1`` diagonal of ``J`` (inertia of ``G``)."""
        return self._signs

    @property
    def method(self) -> str:
        return "superlu"

    def solve_m(self, b: np.ndarray) -> np.ndarray:
        # M = P^T L |D|^{1/2}: M x = b  <=>  L y = P b, x = |D|^{-1/2} y
        y = self._lsolver.solve(np.asarray(b)[self._perm])
        return _row_scale(y, self._inv_sqrt_d)

    def solve_mt(self, b: np.ndarray) -> np.ndarray:
        # M^T = |D|^{1/2} L^T P: M^T x = b  <=>
        # L^T y = |D|^{-1/2} b, x = P^T y
        y = self._lsolver.solve(
            _row_scale(np.asarray(b), self._inv_sqrt_d), trans="T"
        )
        return y[self._inverse_perm]

    def apply_j(self, x: np.ndarray) -> np.ndarray:
        if self._j_identity:
            return np.asarray(x)
        return _row_scale(np.asarray(x), self._signs)

    def solve_j(self, x: np.ndarray) -> np.ndarray:
        # J = J^{-1} for a +-1 diagonal
        return self.apply_j(x)


def _blocks_from_dense(d: np.ndarray) -> BlockDiagonal:
    """Extract the 1x1/2x2 block structure from a block-diagonal array."""
    below, above = np.diagonal(d, -1), np.diagonal(d, 1)
    pairs = np.flatnonzero((below != 0.0) | (above != 0.0))
    return BlockDiagonal(
        np.diagonal(d).copy(), pairs, 0.5 * (below[pairs] + above[pairs])
    )


def factor_symmetric(
    g: sp.spmatrix | np.ndarray,
    *,
    method: str = "auto",
    assume_definite: bool | None = None,
    monitor=None,
) -> SymmetricFactorization:
    """Factor a symmetric matrix as ``G = M J M^T``.

    Parameters
    ----------
    g:
        Symmetric matrix (sparse or dense).
    method:
        ``"auto"`` (pick by density, see the module docstring; fall back
        to Bunch-Kaufman), ``"sparse-cholesky"`` (from-scratch
        up-looking), ``"dense-cholesky"`` (LAPACK ``potrf``), ``"ldlt"``
        (LAPACK Bunch-Kaufman), ``"ldlt-python"``
        (from-scratch Bunch-Kaufman), ``"superlu"`` (compiled sparse
        ``L D L^T``, definite or diagonally-pivotable indefinite).
        ``"auto"`` honours the ``REPRO_FACTORIZATION``
        environment variable (see :func:`resolve_factor_method`).
    assume_definite:
        Hint used by ``"auto"``: ``False`` skips the Cholesky attempts
        (saves time on matrices known to be indefinite); ``True`` makes
        a failed first attempt final instead of falling back to
        Bunch-Kaufman.
    monitor:
        Optional :class:`repro.robustness.health.HealthMonitor`; pivot
        statistics, failed attempts, and the method finally chosen are
        recorded into it.

    Raises
    ------
    FactorizationError
        If every applicable path fails (e.g. the matrix is singular --
        for circuits this means a frequency shift ``s0`` is needed,
        paper eq. 26).
    """
    requested = method
    method = resolve_factor_method(method)
    is_sparse = sp.issparse(g)
    n = g.shape[0]

    def sparse_alternatives() -> str:
        return (
            "pick a sparse method instead: method='superlu' (any "
            "diagonally-pivotable symmetric matrix) or "
            "'sparse-cholesky' (definite only) -- via the method= "
            f"argument, the {_ENV_VAR} environment variable, or the "
            "--factorization CLI flag"
        )

    def to_dense() -> np.ndarray:
        if n > _DENSE_LIMIT:
            raise FactorizationError(
                f"matrix of size {n} is too large for the dense fallback "
                f"(limit {_DENSE_LIMIT}); " + sparse_alternatives()
            )
        return g.toarray() if is_sparse else np.asarray(g, dtype=float)

    def done(fact: SymmetricFactorization) -> SymmetricFactorization:
        if monitor is not None:
            monitor.record(
                "factor.method", method=fact.method, size=fact.size,
                j_identity=fact.j_is_identity,
            )
        return fact

    if method == "sparse-cholesky":
        return done(
            CholeskyFactorization(
                sparse_cholesky(_as_csc(g), monitor=monitor)
            )
        )
    if method == "dense-cholesky":
        return done(DenseCholeskyFactorization(to_dense(), monitor=monitor))
    if method == "ldlt":
        return done(
            LDLTDenseFactorization(to_dense(), engine="scipy", monitor=monitor)
        )
    if method == "ldlt-python":
        return done(
            LDLTDenseFactorization(to_dense(), engine="python", monitor=monitor)
        )
    if method == "superlu":
        return done(SuperLUFactorization(g, monitor=monitor))
    if method != "auto":
        origin = (
            f" (from the {_ENV_VAR} environment variable)"
            if requested in (None, "auto")
            else ""
        )
        raise FactorizationError(
            f"unknown factorization method {method!r}{origin}; known "
            "methods: " + ", ".join(FACTORIZATION_METHODS)
        )

    # "auto": a dense-enough G goes to LAPACK, any other sparse G to the
    # compiled sparse tier.  A definite-only Cholesky (J = I) comes first
    # unless G is known indefinite; dense Bunch-Kaufman catches whatever
    # needs 2x2 pivots.
    dense = not is_sparse or (
        n <= _DENSE_LIMIT and g.nnz >= _DENSE_FILL * n * n
    )
    if assume_definite is not False and dense:
        try:
            return done(
                DenseCholeskyFactorization(to_dense(), monitor=monitor)
            )
        except FactorizationError:
            if assume_definite is True:
                raise
    if not dense:
        try:
            return done(SuperLUFactorization(g, monitor=monitor))
        except FactorizationError as exc:
            if assume_definite is True:
                raise
            if n > _DENSE_LIMIT:
                raise FactorizationError(
                    f"sparse LDL^T failed for size {n} ({exc}) and the "
                    "matrix is too large for the dense fallback; use a "
                    "different expansion shift or " + sparse_alternatives()
                ) from exc
    return done(
        LDLTDenseFactorization(to_dense(), engine="scipy", monitor=monitor)
    )
