"""LARGENET -- scalable factorization tier on 10^4..10^6 node grids.

Sweeps RC power-grids built by :func:`repro.large_rc_grid` and
measures, per factorization backend (the seed from-scratch
``sparse-cholesky`` vs the scalable ``superlu`` tier):

* wall time of the symmetric ``G = M J M^T`` factorization,
* triangular-solve throughput (``solve`` calls per second),
* end-to-end :func:`repro.sympvl` reduction time,
* peak RSS (``ru_maxrss`` high-water mark after each stage), and
* reduced-model accuracy against the exact AC sweep on a Fig.-2-style
  log band scaled to the grid's dominant time constant.

The gate: at the largest scale where both backends run, the scalable
tier must beat the seed backend by >= 5x on factor+reduce wall time,
and its model must match the exact sweep to <= 1e-8 -- this is the
``largenet-smoke`` gate of ``.github/workflows/ci.yml`` (which runs
``--quick``: one 50 x 50 grid, same checks).

Writes ``benchmarks/BENCH_LARGENET.json`` (the CI artifact) plus the
human-readable report, and exits nonzero when a check fails.

Usage::

    python benchmarks/bench_largenet.py [--quick] [--json PATH]
"""

from __future__ import annotations

import pathlib
import resource
import sys
import time

import numpy as np

import repro
from repro.core.sympvl import default_shift
from repro.linalg.factorization import factor_symmetric

from _util import finish, standard_main

SPEEDUP_THRESHOLD = 5.0
ACCURACY_THRESHOLD = 1.0e-8
JSON_PATH = pathlib.Path(__file__).parent / "BENCH_LARGENET.json"

#: largest node count the seed python sparse-cholesky is asked to
#: factor (it is the slow side of the comparison; past this it would
#: dominate the benchmark's runtime for no extra information)
SEED_LIMIT = 200_000
#: largest node count for the exact reference sweep (one complex sparse
#: solve per frequency point)
EXACT_LIMIT = 200_000

#: (label, rows, cols) grids; ~1e4 / 1e5 / 1e6 unknowns
FULL_SCALES = [
    ("1e4", 100, 100),
    ("1e5", 317, 316),
    ("1e6", 1000, 1000),
]
QUICK_SCALES = [("2.5e3", 50, 50)]

ORDER = 64
QUICK_ORDER = 48
SWEEP_POINTS = 8


def peak_rss_mb() -> float:
    """Process high-water RSS in MB (monotone within one run)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fig2_band(system, points: int = SWEEP_POINTS) -> np.ndarray:
    """Log band scaled to the grid's slowest mode (3 decades)."""
    # section tau = R*C; the dominant corner-to-corner mode is slower
    # by ~n/200 on these grids (measured), so the band upper edge is
    # w_hi = 200 / (R * C * n)
    tau = 1.0e3 * 0.2e-12
    w_hi = 200.0 / (tau * system.size)
    return 1j * np.logspace(np.log10(w_hi) - 3.0, np.log10(w_hi), points)


def measure_backend(system, method: str, order: int, sigma0: float) -> dict:
    """Factor / solve-throughput / end-to-end reduce for one backend."""
    shifted = (system.G + sigma0 * system.C).tocsc()

    start = time.perf_counter()
    fact = factor_symmetric(shifted, method=method)
    factor_s = time.perf_counter() - start

    rng = np.random.default_rng(0)
    block = rng.standard_normal((system.size, 4))
    solves = 0
    start = time.perf_counter()
    while True:
        fact.solve(block)
        solves += block.shape[1]
        elapsed = time.perf_counter() - start
        if elapsed > 0.5 or solves >= 64:
            break
    solve_throughput = solves / elapsed
    del fact

    start = time.perf_counter()
    model = repro.sympvl(system, order, factor_method=method)
    reduce_s = time.perf_counter() - start

    return {
        "method": method,
        "factor_s": factor_s,
        "solves_per_s": solve_throughput,
        "reduce_s": reduce_s,
        "factor_plus_reduce_s": factor_s + reduce_s,
        "peak_rss_mb": peak_rss_mb(),
        "_model": model,
    }


def run_scale(label: str, rows: int, cols: int, order: int) -> dict:
    start = time.perf_counter()
    system = repro.large_rc_grid(rows, cols)
    assemble_s = time.perf_counter() - start
    sigma0 = default_shift(system)
    s = fig2_band(system)

    exact = None
    if system.size <= EXACT_LIMIT:
        start = time.perf_counter()
        exact = repro.ac_sweep(system, s).z
        exact_s = time.perf_counter() - start
    else:
        exact_s = None
        print(f"  [{label}] exact sweep skipped above {EXACT_LIMIT} nodes; "
              "accuracy not measured at this scale")

    backends = []
    if system.size <= SEED_LIMIT:
        backends.append("sparse-cholesky")
    else:
        print(f"  [{label}] seed sparse-cholesky skipped above "
              f"{SEED_LIMIT} nodes (slow side of the comparison)")
    backends.append("superlu")

    results = {}
    for method in backends:
        stats = measure_backend(system, method, order, sigma0)
        model = stats.pop("_model")
        if exact is not None:
            reduced = repro.model_sweep(model, s).z
            stats["rel_error"] = float(
                np.abs(reduced - exact).max() / np.abs(exact).max()
            )
        else:
            stats["rel_error"] = None
        results[method] = stats
        print(f"  [{label}] {method}: factor {stats['factor_s']:.3f}s, "
              f"reduce {stats['reduce_s']:.3f}s, "
              f"{stats['solves_per_s']:.0f} solves/s"
              + (f", err {stats['rel_error']:.2e}"
                 if stats["rel_error"] is not None else ""))

    record = {
        "label": label,
        "nodes": system.size,
        "grid": [rows, cols],
        "nnz_g": int(system.G.nnz),
        "order": order,
        "sigma0": sigma0,
        "band_rad_s": [float(abs(s[0])), float(abs(s[-1]))],
        "assemble_s": assemble_s,
        "exact_sweep_s": exact_s,
        "backends": results,
    }
    if "sparse-cholesky" in results:
        seed = results["sparse-cholesky"]["factor_plus_reduce_s"]
        fast = results["superlu"]["factor_plus_reduce_s"]
        record["speedup_vs_seed"] = seed / fast
    return record


def run(quick: bool, json_path: pathlib.Path) -> int:
    scales = QUICK_SCALES if quick else FULL_SCALES
    order = QUICK_ORDER if quick else ORDER
    records = [run_scale(label, r, c, order) for label, r, c in scales]

    # the gate scale: the largest grid where the seed backend ran
    gated = [r for r in records if "speedup_vs_seed" in r]
    gate = max(gated, key=lambda r: r["nodes"])
    accuracy = [
        (r["label"], r["backends"]["superlu"]["rel_error"])
        for r in records
        if r["backends"]["superlu"]["rel_error"] is not None
    ]
    checks = {
        "factor_reduce_speedup_ge_5x": (
            gate["speedup_vs_seed"] >= SPEEDUP_THRESHOLD
        ),
        "superlu_accuracy_le_1e-8": all(
            err <= ACCURACY_THRESHOLD for _, err in accuracy
        ),
    }
    payload = {
        "experiment": "LARGENET",
        "quick": quick,
        "thresholds": {
            "speedup": SPEEDUP_THRESHOLD, "accuracy": ACCURACY_THRESHOLD,
        },
        "gate_scale": gate["label"],
        "scales": [
            {k: v for k, v in r.items()} for r in records
        ],
        "checks": checks,
        "pass": all(checks.values()),
    }
    lines = [
        "LARGENET: scalable factorization tier on RC power-grids"
        + (" [quick]" if quick else ""),
    ]
    for r in records:
        lines.append(
            f"  {r['label']} ({r['nodes']} nodes, nnz(G) = {r['nnz_g']}, "
            f"n = {r['order']}): assemble {r['assemble_s']:.2f} s"
        )
        for method, b in r["backends"].items():
            err = (f", err {b['rel_error']:.2e}"
                   if b["rel_error"] is not None else "")
            lines.append(
                f"    {method:16s} factor {b['factor_s']:8.3f} s  "
                f"reduce {b['reduce_s']:8.3f} s  "
                f"{b['solves_per_s']:8.0f} solves/s  "
                f"RSS {b['peak_rss_mb']:7.0f} MB{err}"
            )
        if "speedup_vs_seed" in r:
            lines.append(
                f"    factor+reduce speedup vs seed: "
                f"{r['speedup_vs_seed']:.1f}x"
            )
    lines += [
        f"  gate ({gate['label']}): speedup "
        f"{gate['speedup_vs_seed']:.1f}x (threshold "
        f"{SPEEDUP_THRESHOLD:.0f}x)",
    ]
    return finish("LARGENET", lines, payload, json_path)


main = standard_main(
    run, default_json=JSON_PATH, description=__doc__.split("\n")[0]
)


if __name__ == "__main__":
    sys.exit(main())
