"""Exact frequency-domain (AC) analysis by direct sparse solves.

Provides the "exact analysis" reference curves of the paper's Figures
2-4: one sparse LU per frequency point of ``G + sigma C``, evaluated
through the same :class:`TransferMap` convention as the reduced models
so exact and reduced responses are directly comparable.

The sweep loop converts ``G`` and ``C`` to CSC **once** and aligns them
on their union sparsity pattern, so each frequency point assembles
``G + sigma C`` by pure data arithmetic (no per-point ``tocsc()`` /
structure rebuild).  Passing ``workers > 1`` (or setting
``REPRO_WORKERS``) fans the grid out over the process pool of
:mod:`repro.engine.sweep`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.circuits.mna import MNASystem
from repro.errors import FactorizationError, SimulationError
from repro.linalg.utils import checked_splu
from repro.simulation.results import FrequencyResponse

__all__ = [
    "AcOperands",
    "ac_kernel",
    "ac_kernel_prepared",
    "ac_sweep",
    "model_sweep",
    "prepare_ac_operands",
]


def _aligned_csc_pair(system: MNASystem):
    """``(G, C)`` as CSC matrices sharing one union sparsity pattern.

    The union structure is built from all-ones masks (their sum is
    never zero, so SciPy cannot prune entries), and each matrix's data
    is scattered onto it via a sorted linear-coordinate search.
    Identical ``indices`` / ``indptr`` let the sweep loop form
    ``G + sigma C`` by pure data arithmetic.  Returns ``aligned=False``
    (with plain CSC conversions) if the construction ever fails, and
    the loop falls back to sparse addition.
    """
    g = sp.csc_matrix(system.G, dtype=complex)
    c = sp.csc_matrix(system.C, dtype=complex)
    for mat in (g, c):
        mat.sum_duplicates()
        mat.sort_indices()
    try:
        mask_g, mask_c = g.copy(), c.copy()
        mask_g.data = np.ones(g.nnz)
        mask_c.data = np.ones(c.nnz)
        union = (mask_g + mask_c).tocsc()
        union.sort_indices()
        n_rows, n_cols = union.shape
        spans = np.diff(union.indptr)
        lin_union = (
            np.repeat(np.arange(n_cols, dtype=np.int64), spans) * n_rows
            + union.indices
        )

        def expand(mat):
            data = np.zeros(union.nnz, dtype=complex)
            lin = (
                np.repeat(
                    np.arange(n_cols, dtype=np.int64), np.diff(mat.indptr)
                ) * n_rows
                + mat.indices
            )
            data[np.searchsorted(lin_union, lin)] = mat.data
            return sp.csc_matrix(
                (data, union.indices.copy(), union.indptr.copy()),
                shape=union.shape,
            )

        return expand(g), expand(c), True
    except Exception:
        return g, c, False


@dataclass
class AcOperands:
    """The precomputed per-system state of the exact sweep loop.

    ``g`` / ``c`` are CSC matrices (sharing one union sparsity pattern
    when ``aligned``) and ``b`` is the complex input matrix.  Preparing
    once and reusing across sweeps is what makes the persistent pool's
    warm path cheap: repeated sweeps ship only the sigma grid
    (:mod:`repro.engine.pool`).
    """

    g: sp.csc_matrix
    c: sp.csc_matrix
    b: np.ndarray
    aligned: bool


def prepare_ac_operands(system: MNASystem) -> AcOperands:
    """Build the reusable operand set of :func:`ac_kernel_prepared`."""
    g, c, aligned = _aligned_csc_pair(system)
    return AcOperands(g=g, c=c, b=system.B.astype(complex), aligned=aligned)


def ac_kernel_prepared(
    operands: AcOperands,
    sigma_values: np.ndarray,
    *,
    factor_cache=None,
) -> np.ndarray:
    """The exact per-point solve loop over prepared operands.

    This is the single implementation behind the serial path, the
    per-call process pool, and the persistent pool workers -- every
    transport runs these exact operations, so results are bitwise
    independent of how the operands arrived.  ``factor_cache`` (an
    object with ``get(sigma)`` / ``put(sigma, lu)``) lets a persistent
    worker reuse LU factorizations across repeated sweeps of the same
    grid; a cached factor is the same object a fresh factorization
    would produce, so caching never changes results.
    """
    sigma_values = np.atleast_1d(np.asarray(sigma_values))
    g, c, b = operands.g, operands.c, operands.b
    p = b.shape[1]
    out = np.empty((sigma_values.size, p, p), dtype=complex)
    for k, sigma in enumerate(sigma_values.ravel()):
        key = complex(sigma)
        lu = factor_cache.get(key) if factor_cache is not None else None
        if lu is None:
            if operands.aligned:
                matrix = sp.csc_matrix(
                    (g.data + sigma * c.data, g.indices, g.indptr),
                    shape=g.shape,
                )
            else:  # pragma: no cover - defensive structure-mismatch path
                matrix = (g + sigma * c).tocsc()
            try:
                # loose rtol: evaluation near (not at) lightly-damped
                # poles is legitimate; only exact singularity is an error
                lu = checked_splu(matrix, rtol=1e-9)
            except FactorizationError as exc:
                raise SimulationError(
                    f"G + sigma C singular at sigma={sigma}"
                ) from exc
            if factor_cache is not None:
                factor_cache.put(key, lu)
        out[k] = b.T @ lu.solve(b)
    return out


def ac_kernel(
    system: MNASystem,
    sigma_values: np.ndarray,
    *,
    workers: int | None = None,
) -> np.ndarray:
    """Exact kernel ``H(sigma) = B^T (G + sigma C)^{-1} B`` per point.

    Returns shape ``(m, p, p)``; raises on a singular system matrix
    (a frequency landing exactly on a pole).  ``workers > 1`` re-splits
    the grid over a process pool (results are independent of the worker
    count; small grids stay serial).
    """
    sigma_values = np.atleast_1d(np.asarray(sigma_values))
    if workers is not None and workers > 1:
        from repro.engine.sweep import parallel_ac_kernel

        return parallel_ac_kernel(system, sigma_values, workers=workers)
    return ac_kernel_prepared(prepare_ac_operands(system), sigma_values)


def ac_sweep(
    system: MNASystem,
    s_values: np.ndarray,
    *,
    label: str = "exact",
    workers: int | None = None,
) -> FrequencyResponse:
    """Exact physical impedance ``Z(s)`` over ``s_values``.

    The transfer map converts ``s`` to the kernel variable (``s**2``
    for LC circuits) and applies the prefactor, mirroring
    :meth:`repro.core.ReducedOrderModel.impedance`.
    """
    s_values = np.atleast_1d(np.asarray(s_values))
    kernel = ac_kernel(
        system, system.transfer.sigma(s_values), workers=workers
    )
    pref = np.atleast_1d(np.asarray(system.transfer.prefactor(s_values)))
    if pref.size == 1:
        pref = np.full(s_values.size, pref.ravel()[0])
    z = kernel * pref[:, None, None].astype(kernel.dtype)
    return FrequencyResponse(
        s=s_values, z=z, port_names=list(system.port_names), label=label
    )


def model_sweep(model, s_values: np.ndarray, *, label: str = "") -> FrequencyResponse:
    """Wrap any reduced model's ``impedance`` into a FrequencyResponse.

    Batched input reaches :meth:`ReducedOrderModel.impedance` as one
    array, so models with an attached compiled form evaluate the whole
    grid as a broadcast sum.
    """
    s_values = np.atleast_1d(np.asarray(s_values))
    z = model.impedance(s_values)
    return FrequencyResponse(
        s=s_values,
        z=np.asarray(z),
        port_names=list(getattr(model, "port_names", [])) or [
            f"p{k}" for k in range(z.shape[-1])
        ],
        label=label or f"reduced n={getattr(model, 'order', '?')}",
    )
