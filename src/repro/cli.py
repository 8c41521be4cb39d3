"""Command-line front end: reduce a netlist from the shell.

::

    python -m repro reduce input.sp --order 20 --out reduced.sp \
        --model model.npz --band 1e7 1e10

    python -m repro reduce input.sp --order 20 --robust \
        --max-retries 5 --fallback arnoldi --diagnostics diag.json

    python -m repro sweep input.sp --order 20 --band 1e7 1e10 \
        --points 400 --workers 4 --cache-dir ~/.cache/repro-engine \
        --exact --stats-json stats.json

    python -m repro cache stats
    python -m repro cache clear

    python -m repro serve --http-port 8080 --cache-dir ~/.cache/repro-engine

    python -m repro info input.sp

    python -m repro fit measured.s2p --poles 24 --domain Z \
        --enforce-passivity --model fitted.npz --spice fitted.sp

    python -m repro touchstone info measured.s2p
    python -m repro touchstone convert measured.s2p out.s2p --format RI
    python -m repro touchstone export input.sp out.s2p \
        --band 1e7 1e10 --points 200 --parameter Z

``sweep`` runs the compiled evaluation engine
(:mod:`repro.engine`): the reduction is cached by content address
(repeats are near-free with ``--cache-dir``), the model is compiled
once to pole-residue form, and the band is evaluated as a batched
broadcast sum; ``--exact`` adds the direct-solve reference sweep,
fanned out over ``--workers`` processes.  ``cache`` inspects or clears
the persistent reduction store.

``serve`` runs the long-lived macromodel service
(:mod:`repro.service`): a stdio-JSONL request loop (plus an optional
localhost HTTP/JSON front) with single-flight dedup, per-request
deadlines, bounded retries, admission control, and a circuit-breaker
guarded degradation ladder -- see ``docs/SERVICE.md``.

``reduce`` parses the SPICE-subset netlist, assembles the symmetric
MNA system, runs SyMPVL, reports band accuracy against the exact
response, and optionally writes a synthesized RC netlist (``--out``)
and/or a serialized model (``--model``).  With ``--robust`` the
reduction runs under the recovery engine
(:func:`repro.robustness.robust_reduce`): Lanczos breakdowns, singular
factorizations, and failed passivity certificates are repaired
automatically and every attempt is logged; ``--diagnostics`` dumps the
full health / recovery report as JSON (on failure too).

``fit`` runs the other direction: instead of reducing circuit
equations it vector-fits a *tabulated* frequency sweep (a Touchstone
``.sNp`` file) to a stable pole-residue macromodel
(:mod:`repro.fitting`), optionally enforces passivity, and writes the
same artifacts as ``reduce`` (a serialized ``.npz`` model, a
synthesized SPICE netlist).  ``touchstone`` inspects, re-formats, and
produces ``.sNp`` files (``export`` sweeps a netlist exactly and
tabulates the result).

Exit codes (documented in ``docs/ROBUSTNESS.md``)::

    0  success
    1  other repro error
    2  netlist parse / circuit error (argparse usage errors also exit 2)
    3  reduction error (breakdown, recovery exhausted)
    4  synthesis error
    5  factorization error
    6  simulation error
    7  I/O error (missing file, unwritable output)
    8  fitting error (vector fit failed, malformed Touchstone file)
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from repro.analysis import Table
from repro.circuits import assemble_mna, parse_netlist, write_netlist
from repro.circuits.validate import validate_netlist
from repro.core import certify, sympvl
from repro.linalg.factorization import FACTORIZATION_METHODS
from repro.core.model import ReducedOrderModel
from repro.errors import (
    EXIT_LABELS,
    ReproError,
    exit_code_for,
)
from repro.io import save_model
from repro.simulation import ac_sweep, model_sweep
from repro.synthesis import synthesize_rc

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SyMPVL matrix-Pade reduced-order modeling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="print netlist statistics")
    info.add_argument("netlist", help="SPICE-subset netlist file")

    reduce_cmd = sub.add_parser("reduce", help="reduce a netlist with SyMPVL")
    reduce_cmd.add_argument("netlist", help="SPICE-subset netlist file")
    reduce_cmd.add_argument("--order", type=int, required=True,
                            help="reduced order n (>= port count)")
    reduce_cmd.add_argument("--shift", default="auto",
                            help="expansion point sigma0 (default: auto)")
    reduce_cmd.add_argument("--band", nargs=2, type=float,
                            metavar=("W_LO", "W_HI"),
                            help="report accuracy over [w_lo, w_hi] rad/s")
    reduce_cmd.add_argument("--points", type=int, default=40,
                            help="frequency points for the accuracy report")
    reduce_cmd.add_argument("--out", help="write synthesized RC netlist here")
    reduce_cmd.add_argument("--model", help="write serialized model (.npz)")
    reduce_cmd.add_argument("--prune-tol", type=float, default=0.0,
                            help="relative pruning threshold for synthesis")
    reduce_cmd.add_argument("--no-validate", action="store_true",
                            help="skip the passivity/topology validation")
    reduce_cmd.add_argument(
        "--robust", action="store_true",
        help="run under the recovery engine (retry breakdowns, "
        "regularize singular shifts, back off the order, fall back "
        "to another reduction engine)")
    reduce_cmd.add_argument(
        "--max-retries", type=int, default=5, metavar="N",
        help="recovery attempts after the initial one (default 5)")
    reduce_cmd.add_argument(
        "--fallback", choices=["sypvl", "arnoldi", "none"],
        default="arnoldi",
        help="last-resort engine for --robust (default arnoldi)")
    reduce_cmd.add_argument(
        "--diagnostics", metavar="PATH",
        help="write the health/recovery report as JSON (also on failure)")
    reduce_cmd.add_argument(
        "--factorization", default="auto", metavar="METHOD",
        choices=FACTORIZATION_METHODS,
        help="G = M J M^T backend, one of "
        f"{', '.join(FACTORIZATION_METHODS)} (default auto; the "
        "REPRO_FACTORIZATION environment variable overrides auto)")
    # deterministic fault injection; for the robustness test harness
    reduce_cmd.add_argument("--inject-fault", help=argparse.SUPPRESS)

    sweep = sub.add_parser(
        "sweep",
        help="reduce (cache-aware) and sweep a netlist with the "
        "compiled evaluation engine",
    )
    sweep.add_argument("netlist", help="SPICE-subset netlist file")
    sweep.add_argument("--order", type=int, required=True,
                       help="reduced order n (>= port count)")
    sweep.add_argument("--engine", choices=["sympvl", "sypvl", "arnoldi"],
                       default="sympvl", help="reduction engine")
    sweep.add_argument("--shift", default="auto",
                       help="expansion point sigma0 (default: auto)")
    sweep.add_argument("--band", nargs=2, type=float, required=True,
                       metavar=("W_LO", "W_HI"),
                       help="sweep band [w_lo, w_hi] rad/s (log-spaced)")
    sweep.add_argument("--points", type=int, default=200,
                       help="number of frequency points (default 200)")
    sweep.add_argument("--exact", action="store_true",
                       help="also run the exact reference sweep and "
                       "report the error (parallel over --workers)")
    sweep.add_argument("--workers", type=int, default=None, metavar="N",
                       help="process-pool width for exact sweeps "
                       "(default: REPRO_WORKERS env, then serial)")
    sweep.add_argument("--no-pool", action="store_true",
                       help="disable the persistent sweep pool (exact "
                       "sweeps fall back to a per-call pool; default: "
                       "REPRO_POOL_PERSISTENT env, then on)")
    sweep.add_argument("--pool-idle-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="idle seconds before the persistent pool "
                       "shuts down (default: REPRO_POOL_IDLE_TIMEOUT "
                       "env, then 120)")
    sweep.add_argument("--cache-dir", metavar="DIR",
                       help="persistent reduction cache directory "
                       "(default: in-memory only)")
    sweep.add_argument("--stats-json", metavar="PATH",
                       help="write engine session metrics as JSON")
    sweep.add_argument(
        "--factorization", default="auto", metavar="METHOD",
        choices=FACTORIZATION_METHODS,
        help="G = M J M^T backend for sympvl/sypvl (default auto)")
    sweep.add_argument("--out", metavar="PATH",
                       help="write the swept |Z| magnitudes as CSV")

    cache = sub.add_parser(
        "cache", help="inspect or clear the on-disk reduction cache"
    )
    cache.add_argument("action", choices=["stats", "clear"],
                       help="print counters / entry counts, or delete "
                       "every cached reduction")
    cache.add_argument("--cache-dir", metavar="DIR",
                       help="cache directory (default: REPRO_CACHE_DIR "
                       "env, then ~/.cache/repro-engine)")

    serve = sub.add_parser(
        "serve",
        help="run the resilient macromodel service (stdio-JSONL, "
        "optionally HTTP on localhost)",
    )
    serve.add_argument("--http-port", type=int, default=None, metavar="PORT",
                       help="also serve HTTP/JSON on 127.0.0.1:PORT "
                       "(0 picks a free port; default: stdio only)")
    serve.add_argument("--cache-dir", metavar="DIR",
                       help="persistent reduction cache directory")
    serve.add_argument("--cache-max-bytes", type=int, default=None,
                       metavar="N", help="disk cache size budget (bytes)")
    serve.add_argument("--cache-ttl", type=float, default=None,
                       metavar="SECONDS", help="disk cache entry TTL")
    serve.add_argument("--workers", type=int, default=None, metavar="N",
                       help="process-pool width for exact sweeps")
    serve.add_argument("--no-pool", action="store_true",
                       help="disable the persistent sweep pool (exact "
                       "sweeps fall back to a per-call pool)")
    serve.add_argument("--pool-idle-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="idle seconds before the persistent pool "
                       "shuts down (default: REPRO_POOL_IDLE_TIMEOUT "
                       "env, then 120)")
    serve.add_argument("--batch-window-ms", type=float, default=2.0,
                       metavar="MS",
                       help="micro-batching window: compiled sweeps "
                       "sharing a model fingerprint merge into one "
                       "broadcast evaluation; 0 disables (default 2)")
    serve.add_argument("--batch-max-size", type=int, default=16,
                       metavar="N",
                       help="requests per batch before an early flush "
                       "(default 16)")
    serve.add_argument("--max-pending", type=int, default=64, metavar="N",
                       help="admission queue bound; beyond it requests "
                       "are shed with 'overloaded' (default 64)")
    serve.add_argument("--max-concurrency", type=int, default=4, metavar="N",
                       help="simultaneously running requests (default 4)")
    serve.add_argument("--deadline", type=float, default=30.0,
                       metavar="SECONDS",
                       help="default per-request wall budget (default 30)")
    serve.add_argument("--retries", type=int, default=3, metavar="N",
                       help="total attempts for transient faults "
                       "(default 3)")
    # deterministic service fault injection; for the test harness
    serve.add_argument("--inject-fault", help=argparse.SUPPRESS)

    fit = sub.add_parser(
        "fit",
        help="vector-fit a tabulated Touchstone sweep to a stable "
        "pole-residue macromodel",
    )
    fit.add_argument("touchstone", help="input .sNp file (Touchstone v1)")
    fit.add_argument("--poles", type=int, default=None, metavar="N",
                     help="model order (default: chosen from the data)")
    fit.add_argument("--real-poles", type=int, default=0, metavar="N",
                     help="how many starting poles are real (default 0)")
    fit.add_argument("--iterations", type=int, default=30, metavar="N",
                     help="max pole-relocation iterations (default 30)")
    fit.add_argument("--tol", type=float, default=1e-10,
                     help="convergence tolerance on the max relative "
                     "fit error (default 1e-10)")
    fit.add_argument("--domain", choices=["S", "Y", "Z"], default=None,
                     help="fit in this parameter domain (default: the "
                     "file's own; conversion uses the reference "
                     "impedance)")
    fit.add_argument("--solver", choices=["fast", "naive"], default="fast",
                     help="LS solver: per-response QR compression or "
                     "the monolithic reference (default fast)")
    fit.add_argument("--enforce-passivity", action="store_true",
                     help="perturb residues until the Hamiltonian / "
                     "half-size test reports a passive model")
    fit.add_argument("--model", metavar="PATH",
                     help="write the fitted model as .npz (io format v2)")
    fit.add_argument("--spice", metavar="PATH",
                     help="write a synthesized SPICE netlist "
                     "(generalized Foster, one driving-point entry)")
    fit.add_argument("--spice-port", metavar="NAME", default=None,
                     help="which port's driving-point entry --spice "
                     "synthesizes (default: only port; required for "
                     "multi-ports)")
    fit.add_argument("--report", metavar="PATH",
                     help="write the fit + passivity report as JSON")

    touchstone = sub.add_parser(
        "touchstone", help="inspect, convert, or produce .sNp files"
    )
    ts_sub = touchstone.add_subparsers(dest="ts_command", required=True)
    ts_info = ts_sub.add_parser("info", help="print file statistics")
    ts_info.add_argument("file", help=".sNp file")
    ts_convert = ts_sub.add_parser(
        "convert", help="rewrite with a different format/unit/parameter"
    )
    ts_convert.add_argument("file", help="input .sNp file")
    ts_convert.add_argument("out", help="output .sNp file")
    ts_convert.add_argument("--format", choices=["RI", "MA", "DB"],
                            default="RI", help="number format (default RI)")
    ts_convert.add_argument("--unit",
                            choices=["HZ", "KHZ", "MHZ", "GHZ"],
                            default="HZ", help="frequency unit (default HZ)")
    ts_convert.add_argument("--parameter", choices=["S", "Y", "Z"],
                            default=None,
                            help="convert to this parameter domain "
                            "(default: keep the file's own)")
    ts_export = ts_sub.add_parser(
        "export", help="sweep a netlist exactly and tabulate it as .sNp"
    )
    ts_export.add_argument("netlist", help="SPICE-subset netlist file")
    ts_export.add_argument("out", help="output .sNp file (port count "
                           "must match the extension)")
    ts_export.add_argument("--band", nargs=2, type=float, required=True,
                           metavar=("W_LO", "W_HI"),
                           help="sweep band [w_lo, w_hi] rad/s (log-spaced)")
    ts_export.add_argument("--points", type=int, default=200,
                           help="number of frequency points (default 200)")
    ts_export.add_argument("--parameter", choices=["S", "Y", "Z"],
                           default="Z",
                           help="tabulated parameter domain (default Z)")
    ts_export.add_argument("--z0", type=float, default=50.0,
                           help="reference impedance in ohm (default 50)")
    ts_export.add_argument("--workers", type=int, default=None, metavar="N",
                           help="process-pool width for the exact sweep")

    generate = sub.add_parser(
        "generate", help="emit a synthetic benchmark circuit as a netlist"
    )
    generate.add_argument(
        "kind",
        choices=["rc-ladder", "rc-mesh", "rc-bus", "rlc-line", "package"],
        help="which generator to run",
    )
    generate.add_argument("--size", type=int, default=0,
                          help="primary size knob (sections/rows/wires/pins)")
    generate.add_argument("--out", required=True, help="output netlist path")
    return parser


def _cmd_info(args: argparse.Namespace) -> int:
    with open(args.netlist) as handle:
        net = parse_netlist(handle.read())
    stats = net.stats()
    table = Table(f"netlist {args.netlist}", ["quantity", "count"])
    for key, value in stats.items():
        table.row(key, value)
    table.row("kind", net.classify())
    table.print()
    return 0


def _write_diagnostics(path: str, payload: dict) -> None:
    from repro.robustness.health import _jsonify

    with open(path, "w") as handle:
        json.dump(_jsonify(payload), handle, indent=2, allow_nan=False)
        handle.write("\n")


def _reduce_model(args: argparse.Namespace, system, shift, fault_plan):
    """Run the reduction; returns (model, certification, diagnostics|None)."""
    from repro.robustness import HealthMonitor
    from repro.robustness.recovery import robust_reduce

    if args.robust:
        result = robust_reduce(
            system,
            args.order,
            shift=shift,
            max_retries=args.max_retries,
            fallback=args.fallback,
            fault_plan=fault_plan,
            factor_method=args.factorization,
        )
        report = result.report
        if report.recovered:
            repairs = [
                a.policy for a in report.attempts
                if a.succeeded and a.policy != "initial"
            ]
            print(f"recovered after {len(report.attempts)} attempts "
                  f"(repairs: {', '.join(repairs)})")
        return result.model, result.certification, result.diagnostics()

    # plain path: still monitored so --diagnostics works without --robust
    monitor = HealthMonitor()
    if fault_plan is not None:
        fault_plan.monitor = monitor

        def wrapper(op):
            return fault_plan.wrap_operator(op)

        from repro.linalg.factorization import factor_symmetric

        factor_fn = fault_plan.wrap_factor(factor_symmetric)
    else:
        wrapper = None
        factor_fn = None
    model = sympvl(
        system, order=args.order, shift=shift, monitor=monitor,
        factor_method=args.factorization,
        factor_fn=factor_fn, operator_wrapper=wrapper,
    )
    cert = certify(model, monitor=monitor)
    diagnostics = None
    if args.diagnostics:
        diagnostics = {
            "engine": "sympvl",
            "order": model.order,
            "requested_order": args.order,
            "certified": bool(cert.certified),
            "recovery": None,
            "fault_injection": (
                fault_plan.summary() if fault_plan is not None else None
            ),
            "health": monitor.report().to_dict(),
        }
    return model, cert, diagnostics


def _cmd_reduce(args: argparse.Namespace) -> int:
    from repro.robustness import FaultPlan

    with open(args.netlist) as handle:
        net = parse_netlist(handle.read())
    if not args.no_validate:
        validate_netlist(net)
    system = assemble_mna(net)
    shift = "auto" if args.shift == "auto" else float(args.shift)
    fault_plan = (
        FaultPlan.parse(args.inject_fault) if args.inject_fault else None
    )

    try:
        model, cert, diagnostics = _reduce_model(
            args, system, shift, fault_plan
        )
    except ReproError as exc:
        if args.diagnostics:
            report = getattr(exc, "report", None)
            _write_diagnostics(args.diagnostics, {
                "engine": None,
                "order": None,
                "requested_order": args.order,
                "certified": None,
                "error": f"{type(exc).__name__}: {exc}",
                "recovery": report.to_dict() if report is not None else None,
                "fault_injection": (
                    fault_plan.summary() if fault_plan is not None else None
                ),
            })
            print(f"diagnostics written to {args.diagnostics}",
                  file=sys.stderr)
        raise

    is_pade = isinstance(model, ReducedOrderModel)
    if is_pade:
        print(
            f"reduced {system.size} unknowns -> {model.order} states "
            f"(ports: {model.num_ports}, sigma0 = {model.sigma0:.4g}, "
            f"factorization: {model.factorization_method})"
        )
        print(f"stable: {model.is_stable()}, certified stable+passive: "
              f"{cert.certified}")
    else:
        print(
            f"reduced {system.size} unknowns -> {model.order} states "
            f"(ports: {model.num_ports}, engine: arnoldi congruence)"
        )
        print(f"stable: {model.is_stable()}, passive by construction")

    if args.band:
        w_lo, w_hi = args.band
        if not 0 < w_lo < w_hi:
            raise ReproError("--band needs 0 < w_lo < w_hi")
        s = 1j * np.logspace(np.log10(w_lo), np.log10(w_hi), args.points)
        exact = ac_sweep(system, s)
        reduced = model_sweep(model, s)
        from repro.analysis import frequency_error

        err = frequency_error(reduced, exact)
        print(f"band accuracy over [{w_lo:.3g}, {w_hi:.3g}] rad/s: "
              f"max rel {err['max_rel']:.3e}, RMS {err['rms_db']:.3e} dB")

    if args.model:
        if is_pade:
            save_model(model, args.model)
            print(f"model written to {args.model}")
        else:
            print("note: --model skipped (congruence fallback model has no "
                  ".npz serialization)", file=sys.stderr)
    if args.out:
        if is_pade:
            report = synthesize_rc(model, prune_tol=args.prune_tol)
            with open(args.out, "w") as handle:
                handle.write(write_netlist(report.netlist))
            print(report.summary())
            print(f"synthesized netlist written to {args.out}")
        else:
            print("note: --out skipped (synthesis needs a matrix-Pade "
                  "model, got the congruence fallback)", file=sys.stderr)
    if args.diagnostics and diagnostics is not None:
        _write_diagnostics(args.diagnostics, diagnostics)
        print(f"diagnostics written to {args.diagnostics}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.engine import Engine

    with open(args.netlist) as handle:
        net = parse_netlist(handle.read())
    system = assemble_mna(net)
    shift = "auto" if args.shift == "auto" else float(args.shift)
    w_lo, w_hi = args.band
    if not 0 < w_lo < w_hi:
        raise ReproError("--band needs 0 < w_lo < w_hi")
    s = 1j * np.logspace(np.log10(w_lo), np.log10(w_hi), args.points)

    if args.no_pool or args.pool_idle_timeout is not None:
        from repro.engine import pool as engine_pool

        engine_pool.configure(
            persistent=False if args.no_pool else None,
            idle_timeout=args.pool_idle_timeout,
        )
    engine = Engine(cache_dir=args.cache_dir, workers=args.workers)
    reduce_options = {}
    if args.engine in ("sympvl", "sypvl") and args.factorization != "auto":
        reduce_options["factor_method"] = args.factorization
    model = engine.reduce(
        system, args.order, engine=args.engine, shift=shift,
        **reduce_options,
    )
    cache_stats = engine.cache.stats
    source = "cache" if cache_stats.hits else "fresh reduction"
    print(f"model: n = {model.order}, p = {model.num_ports} ({source})")

    compiled = engine.compile(model)
    print(f"compiled: mode = {compiled.mode}"
          + ("" if compiled.is_spectral
             else f" (fallback: {compiled.fallback_reason})"))
    reduced = engine.sweep(model, s)
    print(f"swept {args.points} points over [{w_lo:.3g}, {w_hi:.3g}] rad/s "
          f"(max |Z| = {float(np.abs(reduced.z).max()):.4g})")

    if args.exact:
        exact = engine.sweep(system, s, workers=args.workers)
        from repro.analysis import frequency_error

        err = frequency_error(reduced, exact)
        print(f"vs exact: max rel {err['max_rel']:.3e}, "
              f"RMS {err['rms_db']:.3e} dB")

    if args.out:
        header = "omega," + ",".join(
            f"|Z[{i},{j}]|"
            for i in range(model.num_ports)
            for j in range(model.num_ports)
        )
        mags = np.abs(reduced.z).reshape(args.points, -1)
        data = np.column_stack([s.imag, mags])
        np.savetxt(args.out, data, delimiter=",", header=header, comments="")
        print(f"sweep written to {args.out}")

    if args.stats_json:
        with open(args.stats_json, "w") as handle:
            json.dump(engine.stats(), handle, indent=2)
            handle.write("\n")
        print(f"engine stats written to {args.stats_json}")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.engine import ReductionCache, default_cache_dir

    cache_dir = args.cache_dir or default_cache_dir()
    cache = ReductionCache(cache_dir=cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached reduction(s) from {cache_dir}")
        return 0
    info = cache.describe()
    table = Table(f"reduction cache {cache_dir}", ["quantity", "value"])
    for key in ("disk_entries", "disk_bytes", "memory_entries",
                "max_entries", "hits", "misses", "evictions"):
        table.row(key, info[key])
    table.print()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import dataclasses

    from repro.robustness.faultinject import ServiceFaultPlan
    from repro.service import MacromodelService, ServiceConfig, serve_stdio
    from repro.service.config import RetryConfig
    from repro.service.http import serve_http

    if args.no_pool or args.pool_idle_timeout is not None:
        from repro.engine import pool as engine_pool

        engine_pool.configure(
            persistent=False if args.no_pool else None,
            idle_timeout=args.pool_idle_timeout,
        )
    try:
        config = ServiceConfig(
            max_pending=args.max_pending,
            max_concurrency=args.max_concurrency,
            default_deadline=args.deadline,
            cache_dir=args.cache_dir,
            cache_max_bytes=args.cache_max_bytes,
            cache_ttl=args.cache_ttl,
            workers=args.workers,
            retry=dataclasses.replace(RetryConfig(), attempts=args.retries),
            batch_window_ms=args.batch_window_ms,
            batch_max_size=args.batch_max_size,
        )
    except ValueError as exc:
        raise ReproError(str(exc)) from None
    fault_plan = (
        ServiceFaultPlan.parse(args.inject_fault)
        if args.inject_fault else None
    )
    service = MacromodelService(config, fault_plan=fault_plan)

    async def run():
        http_server = None
        if args.http_port is not None:
            http_server = await serve_http(service, port=args.http_port)
            host, port = http_server.sockets[0].getsockname()[:2]
            print(f"http: listening on {host}:{port}", file=sys.stderr)
        print("stdio: one JSON request per line; EOF or a 'shutdown' "
              "request exits", file=sys.stderr)
        try:
            handled = await serve_stdio(service)
        finally:
            if http_server is not None:
                http_server.close()
                await http_server.wait_closed()
        print(f"served {handled} request(s); shutting down", file=sys.stderr)

    asyncio.run(run())
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    from repro.fitting import (
        assess_passivity,
        enforce_model_passivity,
        fit_touchstone,
        read_touchstone,
    )

    data = read_touchstone(args.touchstone)
    print(f"read {args.touchstone}: {data.num_ports} port(s), "
          f"{data.num_points} points, "
          f"{data.frequency_hz.min():.4g}..{data.frequency_hz.max():.4g} Hz, "
          f"parameter {data.parameter} (z0 = {data.z0:g} ohm)")

    model = fit_touchstone(
        data,
        domain=args.domain,
        num_poles=args.poles,
        num_real=args.real_poles,
        iterations=args.iterations,
        tol=args.tol,
        solver=args.solver,
    )
    report = model.report
    print(f"fitted {model.order} poles ({model.num_real_poles} real) in "
          f"{report.iterations} iteration(s), domain {model.parameter}: "
          f"max rel error {report.error:.3e}"
          + ("" if report.converged else " (NOT converged)"))

    if args.enforce_passivity:
        model = enforce_model_passivity(model)
        passivity = model.metadata.get("passivity", {})
        print(f"passivity enforced ({passivity.get('method', '?')}): "
              f"passive = {passivity.get('passive')}, worst margin "
              f"{passivity.get('worst_margin', float('nan')):.3e}, "
              f"padding {passivity.get('padding', 0.0):.3e}, "
              f"distortion {passivity.get('distortion', 0.0):.3e}")
        from repro.analysis.compare import max_relative_error

        post_error = max_relative_error(
            model.matrices(data.s_values), data.in_domain(model.parameter)
        )
        print(f"max rel error vs the table after enforcement: "
              f"{post_error:.3e}")
        if post_error > max(100.0 * report.error, 1e-6):
            print("warning: enforcement significantly distorted the fit "
                  "(the violations were structural); consider more poles, "
                  "a wider tabulated band, or fitting lossier data",
                  file=sys.stderr)
    elif model.parameter in ("Z", "Y"):
        check = assess_passivity(model)
        print(f"passivity check ({check.method}): passive = {check.passive}"
              + ("" if check.passive else
                 f", worst margin {check.worst_margin:.3e} "
                 "(re-run with --enforce-passivity)"))

    if args.model:
        save_model(model, args.model)
        print(f"model written to {args.model}")
    if args.spice:
        from repro.synthesis import synthesize_fitted

        net = synthesize_fitted(model, port=args.spice_port)
        with open(args.spice, "w") as handle:
            handle.write(write_netlist(net))
        print(f"synthesized netlist written to {args.spice}")
    if args.report:
        payload = {
            "fit": report.as_dict(),
            "parameter": model.parameter,
            "z0": model.z0,
            "port_names": list(model.port_names),
            "passivity": model.metadata.get("passivity"),
        }
        with open(args.report, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"fit report written to {args.report}")
    return 0


def _cmd_touchstone(args: argparse.Namespace) -> int:
    from repro.fitting import TouchstoneData, read_touchstone, write_touchstone

    if args.ts_command == "info":
        data = read_touchstone(args.file)
        table = Table(f"touchstone {args.file}", ["quantity", "value"])
        table.row("ports", data.num_ports)
        table.row("points", data.num_points)
        table.row("parameter", data.parameter)
        table.row("z0 (ohm)", data.z0)
        table.row("f min (Hz)", f"{data.frequency_hz.min():.6g}")
        table.row("f max (Hz)", f"{data.frequency_hz.max():.6g}")
        table.row("comment lines", len(data.comments))
        table.print()
        return 0

    if args.ts_command == "convert":
        data = read_touchstone(args.file)
        if args.parameter and args.parameter != data.parameter:
            data = TouchstoneData(
                frequency_hz=data.frequency_hz,
                matrices=data.in_domain(args.parameter),
                parameter=args.parameter,
                z0=data.z0,
                port_names=list(data.port_names),
                comments=list(data.comments),
            )
        write_touchstone(args.out, data, fmt=args.format, unit=args.unit)
        print(f"wrote {data.num_points} points as {data.parameter} "
              f"{args.format} to {args.out}")
        return 0

    # export: exact netlist sweep -> tabulated .sNp
    from repro.engine import Engine

    with open(args.netlist) as handle:
        net = parse_netlist(handle.read())
    system = assemble_mna(net)
    w_lo, w_hi = args.band
    if not 0 < w_lo < w_hi:
        raise ReproError("--band needs 0 < w_lo < w_hi")
    s = 1j * np.logspace(np.log10(w_lo), np.log10(w_hi), args.points)
    engine = Engine(workers=args.workers)
    exact = engine.sweep(system, s, workers=args.workers)
    data = TouchstoneData(
        frequency_hz=s.imag / (2.0 * np.pi),
        matrices=exact.z if args.parameter == "Z"
        else TouchstoneData(
            frequency_hz=s.imag / (2.0 * np.pi),
            matrices=exact.z, parameter="Z", z0=args.z0,
        ).in_domain(args.parameter),
        parameter=args.parameter,
        z0=args.z0,
        port_names=list(exact.port_names),
        comments=[f"exact sweep of {args.netlist}"],
    )
    write_touchstone(args.out, data)
    print(f"swept {args.points} points "
          f"({data.num_ports} port(s)) -> {args.out}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.circuits import (
        coupled_rc_bus,
        package_model,
        rc_ladder,
        rc_mesh,
        rlc_line,
    )

    size = args.size
    if args.kind == "rc-ladder":
        net = rc_ladder(size or 100, port_at_far_end=True)
    elif args.kind == "rc-mesh":
        n = size or 10
        net = rc_mesh(n, n)
    elif args.kind == "rc-bus":
        net = coupled_rc_bus(size or 17, driver_resistance=100.0)
    elif args.kind == "rlc-line":
        net = rlc_line(size or 50)
    else:  # package
        net = package_model(n_pins=size or 64)
    with open(args.out, "w") as handle:
        handle.write(write_netlist(net))
    stats = net.stats()
    print(f"wrote {args.kind} ({stats['nodes']} nodes, "
          f"{len(net)} elements) to {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a documented exit code (module docstring)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "info":
            return _cmd_info(args)
        if args.command == "reduce":
            return _cmd_reduce(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "cache":
            return _cmd_cache(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "fit":
            return _cmd_fit(args)
        if args.command == "touchstone":
            return _cmd_touchstone(args)
        if args.command == "generate":
            return _cmd_generate(args)
    except (ReproError, OSError) as exc:
        code = exit_code_for(exc)
        label = EXIT_LABELS.get(code, "error")
        message = str(exc).split("\n", 1)[0]
        print(f"error [{label}]: {message}", file=sys.stderr)
        return code
    return 2  # pragma: no cover - unreachable with required=True
