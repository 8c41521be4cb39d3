"""Workload ``reduce-grid``: cold SyMPVL reductions of a 1e5-node RC grid.

One op: a cold ``sympvl`` reduction of ``large_rc_grid(317, 316)``
(100172 nodes, 4 corner ports) at order 64 and ``shift=0.0``, then
compile and a 2000-point compiled sweep, through a fresh ``Engine`` (no
cache).  Krylov generation dominates; the parser, the service and the
pool are not used.

Checks: every op's model carries the section-5 guarantee and is stable;
once per run the model agrees with the exact kernel at a few seeded
points to 1e-8 (the ``BENCH_LARGENET`` gate).
"""

from __future__ import annotations

import numpy as np

import repro
from repro.engine import Engine
from harness import SequentialWorkload, check, timed, traced_ops

GRID = (317, 316)
ORDER = 64
SWEEP_POINTS = 2000
CHECK_POINTS = 4
CHECK_TOL = 1.0e-8


def grid_band(system) -> tuple[float, float]:
    """log10 edges of a 3-decade band ending at the grid's slowest mode
    (the ``bench_largenet.py`` band: ``w_hi = 200 / (R C n)``)."""
    tau = 1.0e3 * 0.2e-12
    hi = np.log10(200.0 / (tau * system.size))
    return hi - 3.0, hi


class ReduceGrid(SequentialWorkload):
    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.system = None  # release the previous grid before rebuilding
        self.system = repro.large_rc_grid(*GRID)
        lo, hi = grid_band(self.system)
        self.s_sweep = 1j * np.sort(10.0 ** rng.uniform(lo, hi, SWEEP_POINTS))
        self.s_check = 1j * np.sort(10.0 ** rng.uniform(lo, hi, CHECK_POINTS))
        self.model = None
        self.op(None)()  # warm-up op

    def op(self, tracer):
        engine = Engine()
        if tracer is None:
            model = repro.sympvl(self.system, ORDER, shift=0.0)
        else:
            tracer.instrument_engine(engine)
            model = tracer.sympvl(self.system, ORDER, shift=0.0)
        engine.compile(model)
        response = engine.sweep(model, self.s_sweep)
        self.model = model

        def verify():
            check(model.guaranteed_stable_passive, "no stability guarantee")
            check(model.is_stable(), "unstable model")
            check(bool(np.all(np.isfinite(response.z))), "non-finite sweep")

        return verify

    def final_check(self) -> bool:
        exact, seconds = timed(repro.ac_sweep, self.system, self.s_check)
        reduced = repro.model_sweep(self.model, self.s_check)
        error = float(
            np.abs(reduced.z - exact.z).max() / np.abs(exact.z).max()
        )
        print(f"reduce-grid: ROM vs exact at {CHECK_POINTS} points: "
              f"rel err {error:.2e} (gate {CHECK_TOL:.0e}, {seconds:.2f} s)",
              flush=True)
        return error <= CHECK_TOL

    def layer_metrics(self, tracer, samples) -> dict:
        return tracer.layer_metrics(*traced_ops(samples))
