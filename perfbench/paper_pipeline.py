"""Workload ``paper-pipeline``: the paper's three testbeds from SPICE text.

One op runs each testbed (in a seeded order) through: ``parse_netlist``
-> ``assemble_mna`` -> exact reference sweep through ``Engine.sweep``
on the process pool (2 workers) -> ``sympvl`` at the paper's orders ->
compile -> compiled sweep; the RC bus then goes through
``synthesize_rc`` and the Fig. 5 transients (full circuit and the
synthesized n = 34 / 68 circuits).

* PEEC (Fig. 2): orders 20/50/56, ``shift="auto"`` (``G`` is singular,
  so the sigma0 = 0 factorization fails and is retried at eq. 26);
* package (Figs. 3/4): orders 48/64/80 at sigma0 = 2 pi 1.5 GHz (dense
  Bunch-Kaufman path);
* RC bus (Fig. 5): orders 34/68 at sigma0 = 0.

Checks: the highest order of each testbed agrees with its reference to
the tolerances the ``benchmarks/bench_fig*.py`` scripts assert.
"""

from __future__ import annotations

import numpy as np

import repro
from repro.circuits.mna import lc_inductor_current_output, with_output_columns
from repro.engine import Engine, pool_stats
from repro.robustness import HealthMonitor
from harness import SequentialWorkload, check, stop_children, traced_ops

POOL_WORKERS = 2
PEEC_CELLS = 200
PEEC_BAND = 1j * np.linspace(1.5e9, 4.0e10, 160)
PACKAGE_SHIFT = 2 * np.pi * 1.5e9
PACKAGE_BAND = 1j * 2 * np.pi * np.logspace(np.log10(5e7), np.log10(5e9), 90)
BUS_BAND = 1j * 2 * np.pi * np.logspace(7.0, 10.0, 64)
T_GRID = np.linspace(0.0, 2.0e-8, 2001)


def bus_drives():
    return {"in0": repro.Step(amplitude=1e-3, rise=2e-10)}


class PaperPipeline(SequentialWorkload):
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.setup_children_left = 0
        self.ops = 0

    def setup(self) -> None:
        # every set-up starts its own pool
        self.setup_children_left += stop_children()
        self.rng = np.random.default_rng(self.seed)
        self.monitor = HealthMonitor()
        self.texts = {
            "peec": repro.write_netlist(repro.peec_like_lc(PEEC_CELLS)),
            "package": repro.write_netlist(repro.package_model()),
            "bus": repro.write_netlist(
                repro.coupled_rc_bus(driver_resistance=100.0)
            ),
        }
        self.op(None)()  # warm-up op; starts the pool
        self.warm_evals_before = pool_stats().get("warm_evals", 0)
        self.ops = 0

    # -- one op -----------------------------------------------------------
    def op(self, tracer):
        self.ops += 1
        engine = Engine(workers=POOL_WORKERS, monitor=self.monitor)
        if tracer is not None:
            tracer.instrument_engine(engine)
        steps = {"peec": self._peec, "package": self._package,
                 "bus": self._bus}
        checks = [
            steps[name](engine, tracer)
            for name in self.rng.permutation(sorted(steps))
        ]

        def verify():
            for each in checks:
                each()

        return verify

    @staticmethod
    def _span(tracer, name, fn, *args, **kwargs):
        if tracer is None:
            return fn(*args, **kwargs)
        return tracer.call(name, fn, *args, **kwargs)

    def _front(self, tracer, name):
        net = self._span(tracer, "circuits.parse", repro.parse_netlist,
                         self.texts[name])
        system = self._span(tracer, "circuits.mna", repro.assemble_mna, net)
        return net, system

    @staticmethod
    def _reduce(tracer, system, order, shift):
        if tracer is None:
            return repro.sympvl(system, order, shift=shift)
        return tracer.sympvl(system, order, shift=shift)

    def _reduced_sweeps(self, engine, tracer, system, orders, shift, band):
        responses = {}
        for order in orders:
            model = self._reduce(tracer, system, order, shift)
            engine.compile(model)
            responses[order] = (model, engine.sweep(model, band))
        return responses

    def _peec(self, engine, tracer):
        net, system = self._front(tracer, "peec")

        def two_port(system):
            mid = f"L{len(net.inductors) // 2}"
            column = lc_inductor_current_output(net, mid)
            return with_output_columns(system, column, [f"i({mid})"])

        system = self._span(tracer, "circuits.mna", two_port, system)
        exact = engine.sweep(system, PEEC_BAND)
        reduced = self._reduced_sweeps(
            engine, tracer, system, (20, 50, 56), "auto", PEEC_BAND
        )

        def verify():
            model, response = reduced[56]
            error = repro.frequency_error(response, exact)["max_rel"]
            check(error < 1e-3, f"PEEC n=56 max rel err {error:.2e}")
            check(model.is_stable(1e-6), "PEEC n=56 unstable")

        return verify

    def _package(self, engine, tracer):
        net, system = self._front(tracer, "package")
        exact = engine.sweep(system, PACKAGE_BAND)
        reduced = self._reduced_sweeps(
            engine, tracer, system, (48, 64, 80), PACKAGE_SHIFT, PACKAGE_BAND
        )

        def verify():
            ext1, int1, int2 = (net.port_names[k] for k in (0, 8, 9))
            response = reduced[80][1]
            fig3 = response.voltage_transfer(int1, ext1)
            fig3_exact = exact.voltage_transfer(int1, ext1)
            fig4_db = repro.rms_db_error(
                response.voltage_transfer(int2, ext1),
                exact.voltage_transfer(int2, ext1),
            )
            fig3_db = repro.rms_db_error(fig3, fig3_exact)
            fig3_rel = repro.max_relative_error(fig3, fig3_exact)
            check(fig3_rel < 0.25, f"package n=80 FIG3 max rel {fig3_rel:.3f}")
            check(fig3_db < 0.25, f"package n=80 FIG3 RMS dB {fig3_db:.3f}")
            check(fig4_db < 0.75, f"package n=80 FIG4 RMS dB {fig4_db:.3f}")

        return verify

    def _bus(self, engine, tracer):
        _, system = self._front(tracer, "bus")
        exact = engine.sweep(system, BUS_BAND)
        reduced = self._reduced_sweeps(
            engine, tracer, system, (34, 68), 0.0, BUS_BAND
        )
        drives = bus_drives()
        full = self._span(tracer, "simulation.transient",
                          repro.transient_ports, system, drives, T_GRID)
        synthesized = {}
        for order, (model, _) in reduced.items():
            report = self._span(tracer, "synthesis.rc", repro.synthesize_rc,
                                model, prune_tol=1e-6)
            syn_system = self._span(tracer, "circuits.mna",
                                    repro.assemble_mna, report.netlist)
            synthesized[order] = self._span(
                tracer, "simulation.transient", repro.transient_ports,
                syn_system, drives, T_GRID,
            )

        def verify():
            check(bool(np.all(np.isfinite(exact.z))), "bus exact non-finite")
            model = reduced[68][0]
            check(model.guaranteed_stable_passive, "bus n=68 not guaranteed")
            error = repro.transient_error(synthesized[68], full)["max_rel"]
            check(error < 0.01, f"bus n=68 waveform max rel {error:.2e}")

        return verify

    # -- once per run ---------------------------------------------------------
    def final_check(self) -> bool:
        # every op checks against its own exact reference; what is left is
        # whether each set-up's pool shut down cleanly
        return self.setup_children_left == 0

    def layer_metrics(self, tracer, samples) -> dict:
        metrics = tracer.layer_metrics(*traced_ops(samples))
        pool = pool_stats()
        fallbacks = [
            e for e in self.monitor.by_category("engine.pool")
            if e.data.get("action") == "tier-fallback"
        ] + [
            e for e in self.monitor.by_category("engine.sweep")
            if e.data.get("stage") == "pool-fallback"
        ]
        metrics.update({
            "engine.pool_cold_starts": pool.get("cold_starts", 0),
            "engine.pool_restarts": pool.get("restarts", 0),
            "engine.pool_fallbacks": len(fallbacks),
            "engine.pool_warm_evals": (
                pool.get("warm_evals", 0) - self.warm_evals_before
            ) / max(self.ops, 1),
        })
        return metrics
