"""Transient (time-domain) analysis.

Integrates the MNA differential-algebraic system

``C dx/dt + G x = b(t)``

with backward-Euler or trapezoidal differencing on a uniform grid (one
sparse LU for the whole run).  Three front-ends share the integrator:

* :func:`transient_ports` -- drive the *ports* of an assembled
  :class:`~repro.circuits.mna.MNASystem` with current waveforms and
  record the port voltages (this is how the paper's Figure 5 compares
  the full and the synthesized interconnect).
* :func:`transient_reduced` -- integrate the reduced DAE of eq. (23)
  produced by :meth:`ReducedOrderModel.to_state_space`.
* :func:`transient_netlist` -- general netlist simulation including
  voltage sources (MNA extension rows), for drive circuitry that the
  symmetric reduction formulation itself excludes.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.circuits.elements import GROUND
from repro.circuits.mna import MNASystem
from repro.circuits.netlist import Netlist
from repro.circuits.topology import build_incidence
from repro.core.model import ReducedOrderModel
from repro.errors import FactorizationError, SimulationError
from repro.simulation.results import TransientResult
from repro.simulation.sources import DC, Waveform

__all__ = [
    "transient_ports",
    "transient_reduced",
    "transient_netlist",
]

_METHODS = ("trapezoidal", "backward-euler")


def _check_grid(t: np.ndarray) -> float:
    t = np.asarray(t, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise SimulationError("time grid needs at least two points")
    steps = np.diff(t)
    h = steps[0]
    if h <= 0.0 or not np.allclose(steps, h, rtol=1e-9, atol=0.0):
        raise SimulationError("time grid must be uniform and increasing")
    return float(h)


def _dc_initial_sparse(g: sp.spmatrix, b0: np.ndarray) -> np.ndarray:
    """DC-consistent initial state ``G x0 = b(0)``; zeros if G singular.

    An inconsistent initial condition makes the trapezoidal rule ring on
    the algebraic (C-null-space) components, so the integrators start
    from the DC operating point whenever one exists.
    """
    from repro.linalg.utils import checked_splu

    try:
        return checked_splu(sp.csc_matrix(g)).solve(b0)
    except FactorizationError:
        return np.zeros_like(b0)


def _dc_initial_dense(g: np.ndarray, b0: np.ndarray) -> np.ndarray:
    try:
        x0 = np.linalg.solve(g, b0)
    except np.linalg.LinAlgError:
        return np.zeros_like(b0)
    if not np.all(np.isfinite(x0)) or np.abs(x0).max() > 1e14 * (
        np.abs(b0).max() + 1.0
    ):
        return np.zeros_like(b0)
    return x0


def _integrate_sparse(
    g: sp.spmatrix,
    c: sp.spmatrix,
    rhs: np.ndarray,
    t: np.ndarray,
    method: str,
    x0: np.ndarray,
) -> np.ndarray:
    """Shared fixed-step integrator; ``rhs`` has shape ``(m, N)``."""
    h = _check_grid(t)
    g = sp.csc_matrix(g)
    c = sp.csc_matrix(c)
    if method == "trapezoidal":
        lhs = (c / h + 0.5 * g).tocsc()
        rhs_matrix = (c / h - 0.5 * g).tocsr()
    elif method == "backward-euler":
        lhs = (c / h + g).tocsc()
        rhs_matrix = (c / h).tocsr()
    else:
        raise SimulationError(f"unknown method {method!r}; use one of {_METHODS}")
    try:
        lu = spla.splu(lhs)
    except RuntimeError as exc:
        raise SimulationError(
            "integration matrix C/h + alpha*G is singular; "
            "the circuit pencil is not regular"
        ) from exc
    # damped start: one backward-Euler step suppresses trapezoidal
    # ringing from any residual initial-condition inconsistency
    be_lhs = None
    if method == "trapezoidal":
        be_lhs = spla.splu((c / h + g).tocsc())
        be_rhs = (c / h).tocsr()
    m = t.size
    x = np.empty((m, x0.size), dtype=np.result_type(rhs.dtype, x0.dtype))
    x[0] = x0
    for k in range(m - 1):
        if method == "trapezoidal":
            if k == 0:
                x[1] = be_lhs.solve(be_rhs @ x[0] + rhs[1])
                continue
            b = rhs_matrix @ x[k] + 0.5 * (rhs[k] + rhs[k + 1])
        else:
            b = rhs_matrix @ x[k] + rhs[k + 1]
        x[k + 1] = lu.solve(b)
    return x


def _integrate_dense(
    g: np.ndarray,
    c: np.ndarray,
    rhs: np.ndarray,
    t: np.ndarray,
    method: str,
    x0: np.ndarray,
) -> np.ndarray:
    h = _check_grid(t)
    if method == "trapezoidal":
        lhs = c / h + 0.5 * g
        rhs_matrix = c / h - 0.5 * g
    elif method == "backward-euler":
        lhs = c / h + g
        rhs_matrix = c / h
    else:
        raise SimulationError(f"unknown method {method!r}; use one of {_METHODS}")
    try:
        lu_piv = scipy.linalg.lu_factor(lhs)
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise SimulationError("integration matrix is singular") from exc
    be_piv = None
    if method == "trapezoidal":
        be_piv = scipy.linalg.lu_factor(c / h + g)
    m = t.size
    x = np.empty((m, x0.size), dtype=np.result_type(rhs.dtype, x0.dtype))
    x[0] = x0
    for k in range(m - 1):
        if method == "trapezoidal":
            if k == 0:
                x[1] = scipy.linalg.lu_solve(be_piv, (c / h) @ x[0] + rhs[1])
                continue
            b = rhs_matrix @ x[k] + 0.5 * (rhs[k] + rhs[k + 1])
        else:
            b = rhs_matrix @ x[k] + rhs[k + 1]
        x[k + 1] = scipy.linalg.lu_solve(lu_piv, b)
    return x


def _resolve_drives(
    port_names: list[str],
    drives: dict[str, Waveform] | list[Waveform],
) -> list[Waveform]:
    if isinstance(drives, dict):
        unknown = set(drives) - set(port_names)
        if unknown:
            raise SimulationError(f"unknown drive ports: {sorted(unknown)}")
        return [drives.get(name, DC(0.0)) for name in port_names]
    drives = list(drives)
    if len(drives) != len(port_names):
        raise SimulationError(
            f"need one waveform per port ({len(port_names)}), got {len(drives)}"
        )
    return drives


def transient_ports(
    system: MNASystem,
    drives: dict[str, Waveform] | list[Waveform],
    t: np.ndarray,
    *,
    method: str = "trapezoidal",
    label: str = "",
) -> TransientResult:
    """Integrate an assembled MNA system with current drive at the ports.

    Only valid for formulations whose kernel variable is physical time
    (``"rc"`` and ``"mna"``); the transformed RL/LC systems are
    frequency-domain artifacts -- re-assemble with
    ``assemble_mna(net, "mna")`` to simulate those circuits.

    Returns the port voltages ``B^T x(t)`` and wall-clock statistics in
    ``result.stats`` (used by the Figure-5 CPU-time comparison).
    """
    if system.formulation not in ("rc", "mna"):
        raise SimulationError(
            f'formulation "{system.formulation}" is not a time-domain form; '
            'assemble with formulation="mna" for transient analysis'
        )
    t = np.asarray(t, dtype=float)
    waveforms = _resolve_drives(list(system.port_names), drives)
    currents = np.column_stack([np.asarray(w(t), dtype=float) for w in waveforms])
    rhs = currents @ system.B.T
    started = time.perf_counter()
    x0 = _dc_initial_sparse(system.G, rhs[0])
    x = _integrate_sparse(system.G, system.C, rhs, t, method, x0)
    elapsed = time.perf_counter() - started
    outputs = x @ system.B
    return TransientResult(
        t=t,
        outputs=outputs,
        output_names=[f"v({name})" for name in system.port_names],
        label=label or f"full N={system.size}",
        stats={"cpu_seconds": elapsed, "unknowns": system.size, "method": method},
    )


def transient_reduced(
    model: ReducedOrderModel,
    drives: dict[str, Waveform] | list[Waveform],
    t: np.ndarray,
    *,
    method: str = "trapezoidal",
    label: str = "",
) -> TransientResult:
    """Integrate the reduced DAE of eq. (23) under port current drive."""
    state_space = model.to_state_space()
    t = np.asarray(t, dtype=float)
    waveforms = _resolve_drives(list(model.port_names), drives)
    currents = np.column_stack([np.asarray(w(t), dtype=float) for w in waveforms])
    rhs = currents @ state_space.br.T
    gr, cr = state_space.gr, state_space.cr
    started = time.perf_counter()
    x0 = _dc_initial_dense(gr, rhs[0])
    x = _integrate_dense(gr, cr, rhs, t, method, x0)
    elapsed = time.perf_counter() - started
    outputs = x @ state_space.lr
    if state_space.d is not None:
        outputs = outputs + currents @ state_space.d.T
    return TransientResult(
        t=t,
        outputs=outputs,
        output_names=[f"v({name})" for name in model.port_names],
        label=label or f"reduced n={model.order}",
        stats={"cpu_seconds": elapsed, "unknowns": model.order, "method": method},
    )


def transient_netlist(
    net: Netlist,
    waveforms: dict[str, Waveform],
    t: np.ndarray,
    *,
    outputs: list[str] | None = None,
    method: str = "trapezoidal",
    label: str = "",
) -> TransientResult:
    """General netlist transient including voltage sources.

    Voltage sources get the standard MNA extension (their branch
    currents join the unknown vector), so drive circuitry such as a
    gate output modeled as a voltage ramp behind a resistor can be
    simulated even though the *reduction* path forbids voltage sources.

    Parameters
    ----------
    waveforms:
        Time-varying values keyed by source element name; sources not
        listed keep their static element ``value``.
    outputs:
        Node names to record (default: all non-datum nodes).
    """
    unknown = set(waveforms) - {e.name for e in net}
    if unknown:
        raise SimulationError(f"waveforms reference unknown elements: {sorted(unknown)}")

    inc = build_incidence(net)
    n_nodes = inc.num_nodes
    isources = net.current_sources
    vsources = net.voltage_sources
    inductors = net.inductors
    n_l = len(inductors)
    n_v = len(vsources)

    g_nodes = (
        inc.a_g.T @ sp.diags(inc.conductances) @ inc.a_g
        if inc.a_g.shape[0]
        else sp.csr_matrix((n_nodes, n_nodes))
    )
    c_nodes = (
        inc.a_c.T @ sp.diags(inc.capacitances) @ inc.a_c
        if inc.a_c.shape[0]
        else sp.csr_matrix((n_nodes, n_nodes))
    )
    a_v = _incidence_for(vsources, inc.node_index)

    blocks_g = [[g_nodes, inc.a_l.T, a_v.T], [inc.a_l, None, None], [a_v, None, None]]
    zeros_nl = sp.csr_matrix((n_nodes, n_l))
    zeros_nv = sp.csr_matrix((n_nodes, n_v))
    blocks_c = [
        [c_nodes, zeros_nl, zeros_nv],
        [zeros_nl.T, -inc.inductance, sp.csr_matrix((n_l, n_v))],
        [zeros_nv.T, sp.csr_matrix((n_v, n_l)), sp.csr_matrix((n_v, n_v))],
    ]
    g_full = sp.bmat(blocks_g, format="csc") if (n_l or n_v) else g_nodes.tocsc()
    c_full = sp.bmat(blocks_c, format="csc") if (n_l or n_v) else c_nodes.tocsc()

    t = np.asarray(t, dtype=float)
    size = n_nodes + n_l + n_v
    rhs = np.zeros((t.size, size))
    for source in isources:
        wave = waveforms.get(source.name, DC(source.value))
        values = np.asarray(wave(t), dtype=float)
        if source.node_pos != GROUND:
            rhs[:, inc.node_index[source.node_pos]] += values
        if source.node_neg != GROUND:
            rhs[:, inc.node_index[source.node_neg]] -= values
    for k, source in enumerate(vsources):
        wave = waveforms.get(source.name, DC(source.value))
        rhs[:, n_nodes + n_l + k] = np.asarray(wave(t), dtype=float)

    started = time.perf_counter()
    x0 = _dc_initial_sparse(g_full, rhs[0])
    x = _integrate_sparse(g_full, c_full, rhs, t, method, x0)
    elapsed = time.perf_counter() - started

    names = outputs if outputs is not None else list(net.nodes)
    cols = []
    for name in names:
        if name == GROUND:
            cols.append(np.zeros(t.size))
            continue
        if name not in inc.node_index:
            raise SimulationError(f"unknown output node {name!r}")
        cols.append(x[:, inc.node_index[name]])
    return TransientResult(
        t=t,
        outputs=np.column_stack(cols) if cols else np.zeros((t.size, 0)),
        output_names=[f"v({n})" for n in names],
        label=label or f"netlist N={size}",
        stats={"cpu_seconds": elapsed, "unknowns": size, "method": method},
    )


def _incidence_for(branches, node_index) -> sp.csr_matrix:
    rows, cols, data = [], [], []
    for k, branch in enumerate(branches):
        if branch.node_pos != GROUND:
            rows.append(k)
            cols.append(node_index[branch.node_pos])
            data.append(1.0)
        if branch.node_neg != GROUND:
            rows.append(k)
            cols.append(node_index[branch.node_neg])
            data.append(-1.0)
    return sp.csr_matrix(
        (data, (rows, cols)), shape=(len(branches), len(node_index))
    )


# Note on current-source sign: a CurrentSource drives current *through*
# itself from node_pos to node_neg, i.e. it injects current INTO
# node_neg externally.  The MNA right-hand side above follows the
# paper's convention (eq. 2, i_i = -I_t): a positive waveform raises the
# potential of node_pos.
