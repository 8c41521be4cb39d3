"""Cross-path agreement of the ``G = M J M^T`` backends on the paper testbeds.

Every factorization that applies to a testbed must give the same reduced
model up to rounding as ``method="auto"``: the same expansion point and
section-5 guarantee, the same compile mode, the moments of eq. (14) and
the same kernel over the figure's band.  The array-backed ``J`` of the
Bunch-Kaufman path is checked against the block-by-block loop it
replaced: bitwise on the package (all 1x1 pivots) and to rounding on
random RLC matrices that need 2x2 pivots.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.circuits.mna import lc_inductor_current_output, with_output_columns
from repro.core import exact_moments, moment_match_count
from repro.engine import compile_model
from repro.linalg.factorization import SymmetricFactorization, factor_symmetric

#: worst kernel difference between paths seen on these testbeds was
#: 9e-13 (PEEC n=56, sparse-cholesky vs auto); Krylov rounding, not a
#: different model
KERNEL_RTOL = 1e-10
#: every path matches all 2 floor(n/p) guaranteed moments to this
MOMENT_RTOL = 1e-8


def peec_two_port():
    net = repro.peec_like_lc(200)
    mid = f"L{len(net.inductors) // 2}"
    system = repro.assemble_mna(net)
    return with_output_columns(
        system, lc_inductor_current_output(net, mid), [f"i({mid})"]
    )


PACKAGE_SHIFT = 2 * np.pi * 1.5e9

#: name -> (system builder, order, shift, band, paths besides auto)
TESTBEDS = {
    "peec": (
        peec_two_port, 56, "auto", 1j * np.linspace(1.5e9, 4.0e10, 40),
        ("sparse-cholesky", "superlu", "dense-cholesky"),
    ),
    "package": (
        lambda: repro.assemble_mna(repro.package_model()), 80, PACKAGE_SHIFT,
        1j * 2 * np.pi * np.logspace(np.log10(5e7), np.log10(5e9), 30),
        ("ldlt",),
    ),
    "bus": (
        lambda: repro.assemble_mna(
            repro.coupled_rc_bus(driver_resistance=100.0)
        ),
        68, 0.0,
        1j * 2 * np.pi * np.logspace(7.0, 10.0, 30),
        ("sparse-cholesky", "superlu", "dense-cholesky"),
    ),
}


@pytest.fixture(scope="module")
def systems():
    return {name: build() for name, (build, *_rest) in TESTBEDS.items()}


@pytest.fixture(scope="module")
def auto_models(systems):
    return {
        name: repro.sympvl(systems[name], order, shift=shift)
        for name, (_, order, shift, _band, _paths) in TESTBEDS.items()
    }


PATHS = [
    (name, method)
    for name, (*_rest, paths) in TESTBEDS.items()
    for method in paths
]


@pytest.mark.parametrize("name,method", PATHS)
def test_paths_agree_with_auto(systems, auto_models, name, method):
    _, order, shift, band, _ = TESTBEDS[name]
    system, reference = systems[name], auto_models[name]
    model = repro.sympvl(system, order, shift=shift, factor_method=method)

    assert model.sigma0 == reference.sigma0
    assert (
        model.guaranteed_stable_passive
        == reference.guaranteed_stable_passive
    )
    assert compile_model(model).mode == compile_model(reference).mode

    count = 2 * (order // system.num_ports)
    exact = exact_moments(system, count, model.sigma0)
    for each in (model, reference):
        matched = moment_match_count(
            each.moments(count), exact, rtol=MOMENT_RTOL
        )
        assert matched == count

    z_ref = reference.impedance(band)
    diff = np.abs(model.impedance(band) - z_ref).max()
    assert diff <= KERNEL_RTOL * np.abs(z_ref).max()


def test_auto_routes_each_testbed(auto_models):
    # dense PEEC G -> LAPACK Cholesky; sparse definite bus -> SuperLU;
    # the package needs 2x2-capable pivoting -> dense Bunch-Kaufman
    methods = {n: m.factorization_method for n, m in auto_models.items()}
    assert methods == {
        "peec": "dense-cholesky",
        "package": "bunch-kaufman-scipy",
        "bus": "superlu",
    }
    assert auto_models["peec"].guaranteed_stable_passive
    assert auto_models["bus"].guaranteed_stable_passive


# ---------------------------------------------------------------------------
# array-backed J vs the block loop
# ---------------------------------------------------------------------------
def loop_blocks(j) -> list[tuple[int, np.ndarray]]:
    """``(start, block)`` for each 1x1/2x2 block of ``J``, read off its
    dense form."""
    dense = j.to_array()
    n = dense.shape[0]
    blocks, k = [], 0
    while k < n:
        width = 2 if k + 1 < n and dense[k + 1, k] != 0.0 else 1
        blocks.append((k, dense[k : k + width, k : k + width]))
        k += width
    return blocks


class LoopJ(SymmetricFactorization):
    """Wraps a Bunch-Kaufman factorization; ``J`` products and solves
    run block by block, as ``BlockDiagonal`` did before it held arrays."""

    def __init__(self, inner):
        self._inner = inner
        self._blocks = loop_blocks(inner.j)

    size = property(lambda self: self._inner.size)
    j_is_identity = property(lambda self: self._inner.j_is_identity)
    method = property(lambda self: self._inner.method)

    def solve_m(self, b):
        return self._inner.solve_m(b)

    def solve_mt(self, b):
        return self._inner.solve_mt(b)

    def apply_j(self, x):
        x = np.asarray(x)
        out = np.empty_like(x, dtype=np.result_type(x, float))
        for start, block in self._blocks:
            w = block.shape[0]
            out[start : start + w] = block @ x[start : start + w]
        return out

    def solve_j(self, x):
        x = np.asarray(x)
        out = np.empty_like(x, dtype=np.result_type(x, float))
        for start, block in self._blocks:
            if block.shape[0] == 1:
                out[start] = x[start] / block[0, 0]
                continue
            a, b, d = block[0, 0], block[0, 1], block[1, 1]
            det = a * d - b * b
            x0, x1 = x[start], x[start + 1]
            out[start] = (d * x0 - b * x1) / det
            out[start + 1] = (-b * x0 + a * x1) / det
        return out


def loop_factor(g, **kwargs):
    return LoopJ(factor_symmetric(g, **kwargs))


@pytest.mark.parametrize("order", [48, 64, 80])
def test_package_rom_bitwise_equal_to_loop_j(systems, order):
    system = systems["package"]
    model = repro.sympvl(system, order, shift=PACKAGE_SHIFT)
    reference = repro.sympvl(
        system, order, shift=PACKAGE_SHIFT, factor_fn=loop_factor
    )
    assert model.factorization_method == "bunch-kaufman-scipy"
    for field in ("t", "delta", "rho"):
        assert np.array_equal(
            getattr(model, field), getattr(reference, field)
        ), field


@pytest.mark.parametrize("seed", [3, 11, 3120])
def test_two_by_two_blocks_agree_with_loop(seed):
    system = repro.assemble_mna(repro.random_passive("RLC", 12, seed=seed))
    fact = factor_symmetric(system.shifted_g(1e9), method="ldlt")
    loop = LoopJ(fact)
    assert fact.j.pairs.size > 0, "needs 2x2 pivots to test anything"
    rng = np.random.default_rng(seed)
    for shape in [(fact.size,), (fact.size, 1), (fact.size, 5)]:
        x = rng.standard_normal(shape)
        for fast, slow in (
            (fact.apply_j(x), loop.apply_j(x)),
            (fact.solve_j(x), loop.solve_j(x)),
        ):
            scale = np.abs(slow).max()
            assert np.abs(fast - slow).max() <= 8 * np.finfo(float).eps * scale
