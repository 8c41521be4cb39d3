"""Recovery policies and the robust reduction driver.

:func:`robust_reduce` wraps the SyMPVL pipeline in a retry loop driven
by composable :class:`RecoveryPolicy` objects.  When an attempt fails,
the policies are consulted in order; the first one that recognizes the
failure proposes the next :class:`AttemptSpec`, and every attempt --
successful or not -- is logged into a :class:`RecoveryReport`.  The
default ladder mirrors the failure taxonomy of the paper's section 4:

* Lanczos breakdown (:class:`BreakdownError`) -> restart once with a
  deterministically perturbed starting block
  (:class:`PerturbedRestartPolicy`): a breakdown is a measure-zero event
  in the starting block, so a tiny generic perturbation usually escapes
  it at the cost of an O(eps) moment-match error;
* singular / ill-conditioned factorization -> retry with a regularized
  expansion shift on a geometric backoff ladder
  (:class:`ShiftRegularizationPolicy`), the paper's eq.-26 frequency
  shift applied adaptively;
* persistent (incurable) breakdown -> halve the reduction order until
  the iteration no longer reaches the defective step
  (:class:`OrderBackoffPolicy`), trading accuracy for completion;
* everything else exhausted -> switch engines
  (:class:`EngineFallbackPolicy`): SyPVL for one-ports, otherwise the
  PRIMA-style block-Arnoldi congruence reduction, which shares none of
  the Lanczos breakdown surface (passive by construction, half the
  moments per order);
* a failed passivity certificate after success -> eigenvalue clamping +
  re-certification (``clamp-passivity``, applied inline by the driver).

The driver threads a single :class:`HealthMonitor` through every
attempt, so the final :class:`ReductionHealth` report covers the whole
recovery history, not just the surviving run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.circuits.mna import MNASystem
from repro.core.arnoldi import CongruenceModel, prima
from repro.core.lanczos import LanczosOptions
from repro.core.model import ReducedOrderModel
from repro.core.passivity import certify, clamp_spectrum
from repro.core.sympvl import default_shift, sympvl
from repro.errors import (
    BreakdownError,
    FactorizationError,
    RecoveryExhaustedError,
    ReductionError,
    ReproError,
)
from repro.robustness.faultinject import FaultPlan
from repro.robustness.health import HealthMonitor, ReductionHealth, _jsonify

__all__ = [
    "AttemptSpec",
    "RecoveryAttempt",
    "RecoveryReport",
    "RecoveryPolicy",
    "PerturbedRestartPolicy",
    "FactorizationFallbackPolicy",
    "ShiftRegularizationPolicy",
    "OrderBackoffPolicy",
    "EngineFallbackPolicy",
    "RobustReduction",
    "default_policies",
    "robust_reduce",
]

#: engines the driver knows how to run
ENGINES = ("sympvl", "sypvl", "arnoldi")
#: relative size of the perturbed-restart starting-block perturbation
_PERTURB_EPS = 1.0e-8


@dataclass(frozen=True)
class AttemptSpec:
    """A fully determined reduction attempt (engine + parameters)."""

    engine: str
    order: int
    shift: float | str
    policy: str = "initial"
    note: str = ""
    perturb_seed: int | None = None
    factor_method: str = "auto"


@dataclass(frozen=True)
class RecoveryAttempt:
    """One logged attempt: what was tried, and how it ended."""

    policy: str
    engine: str
    order: int
    shift: str
    succeeded: bool
    error_class: str | None = None
    error: str | None = None
    note: str = ""
    factor_method: str = "auto"

    def to_dict(self) -> dict:
        return _jsonify(
            {
                "policy": self.policy,
                "engine": self.engine,
                "order": self.order,
                "shift": self.shift,
                "succeeded": self.succeeded,
                "error_class": self.error_class,
                "error": self.error,
                "note": self.note,
                "factor_method": self.factor_method,
            }
        )


@dataclass
class RecoveryReport:
    """The full recovery history of one :func:`robust_reduce` call."""

    attempts: list[RecoveryAttempt] = field(default_factory=list)
    final_engine: str | None = None
    final_order: int | None = None
    gave_up: bool = False

    @property
    def recovered(self) -> bool:
        """True when the run needed (and survived) at least one retry."""
        return (
            not self.gave_up
            and self.final_engine is not None
            and len([a for a in self.attempts if a.policy != "clamp-passivity"])
            > 1
        )

    def to_dict(self) -> dict:
        return {
            "attempts": [a.to_dict() for a in self.attempts],
            "final_engine": self.final_engine,
            "final_order": self.final_order,
            "recovered": self.recovered,
            "gave_up": self.gave_up,
        }


class RecoveryPolicy:
    """Base class: inspect a failure, propose the next attempt (or not).

    Policies are *stateful within one* :func:`robust_reduce` *call* (use
    counters implement backoff budgets), so :func:`default_policies`
    builds a fresh set per call; reusing instances across calls carries
    their budgets over.
    """

    name = "policy"

    def propose(
        self, spec: AttemptSpec, exc: ReproError, context: "RecoveryContext"
    ) -> AttemptSpec | None:
        raise NotImplementedError


@dataclass
class RecoveryContext:
    """What policies are allowed to know about the run."""

    system: MNASystem
    requested_order: int
    fallback: str
    attempt_count: int = 0


class PerturbedRestartPolicy(RecoveryPolicy):
    """Breakdown -> restart with a perturbed starting block (once by default)."""

    name = "perturb-restart"

    def __init__(self, max_uses: int = 1, eps: float = _PERTURB_EPS):
        self.max_uses = max_uses
        self.eps = eps
        self.uses = 0

    def propose(self, spec, exc, context):
        if not isinstance(exc, BreakdownError):
            return None
        if spec.engine not in ("sympvl", "sypvl") or self.uses >= self.max_uses:
            return None
        self.uses += 1
        return AttemptSpec(
            engine=spec.engine,
            order=spec.order,
            shift=spec.shift,
            policy=self.name,
            note=f"starting block perturbed (eps={self.eps:g}, "
            f"seed={self.uses})",
            perturb_seed=self.uses,
            factor_method=spec.factor_method,
        )


class FactorizationFallbackPolicy(RecoveryPolicy):
    """Factorization failure -> next backend in the factorization ladder.

    Cheaper than shift regularization (the expansion point -- and hence
    the matched moments -- stays put; only the ``G = M J M^T`` backend
    changes), so it runs first when an *explicitly pinned* backend
    fails.  With ``factor_method="auto"`` the facade already traverses
    its internal ladder, so this policy stays silent and the shift
    repair takes over.

    The ladder is ``superlu -> sparse-cholesky -> ldlt -> auto``,
    filtered by the dense-size limit for the LDLT fallback.
    """

    name = "factorization-fallback"

    _LADDER = ("superlu", "sparse-cholesky", "ldlt", "auto")

    def __init__(self):
        self.tried: set[str] = set()

    def _is_factorization_failure(self, exc: ReproError) -> bool:
        if isinstance(exc, FactorizationError):
            return True
        return isinstance(exc, ReductionError) and "factor" in str(exc)

    def propose(self, spec, exc, context):
        from repro.linalg.factorization import (
            _DENSE_LIMIT,
            resolve_factor_method,
        )

        if not self._is_factorization_failure(exc):
            return None
        if spec.engine == "arnoldi":
            return None
        current = resolve_factor_method(spec.factor_method)
        if current == "auto":
            return None
        self.tried.add(current)
        size = context.system.size
        for candidate in self._LADDER:
            if candidate in self.tried:
                continue
            if (
                candidate in ("ldlt", "ldlt-python", "dense-cholesky")
                and size > _DENSE_LIMIT
            ):
                continue
            self.tried.add(candidate)
            return AttemptSpec(
                engine=spec.engine,
                order=spec.order,
                shift=spec.shift,
                policy=self.name,
                note=f"factorization backend {current} -> {candidate}",
                factor_method=candidate,
            )
        return None


class ShiftRegularizationPolicy(RecoveryPolicy):
    """Factorization failure -> regularized shift on a geometric ladder."""

    name = "regularize-shift"

    def __init__(self, max_uses: int = 3, growth: float = 10.0):
        self.max_uses = max_uses
        self.growth = growth
        self.uses = 0

    def _is_factorization_failure(self, exc: ReproError) -> bool:
        if isinstance(exc, FactorizationError):
            return True
        return isinstance(exc, ReductionError) and "factor" in str(exc)

    def propose(self, spec, exc, context):
        if not self._is_factorization_failure(exc):
            return None
        if spec.engine == "arnoldi" or self.uses >= self.max_uses:
            return None
        self.uses += 1
        if isinstance(spec.shift, str) or spec.shift == 0.0:
            base = default_shift(context.system)
        else:
            base = abs(float(spec.shift))
        new_shift = base * self.growth**self.uses
        return AttemptSpec(
            engine=spec.engine,
            order=spec.order,
            shift=new_shift,
            policy=self.name,
            note=f"shift regularized to sigma0={new_shift:.4g} "
            f"(backoff {self.uses}/{self.max_uses})",
            factor_method=spec.factor_method,
        )


class OrderBackoffPolicy(RecoveryPolicy):
    """Persistent breakdown -> halve the order until below the bad step."""

    name = "order-backoff"

    def propose(self, spec, exc, context):
        if not isinstance(exc, (BreakdownError, ReductionError)):
            return None
        if spec.engine == "arnoldi":
            return None
        floor = max(context.system.num_ports, 1)
        new_order = spec.order // 2
        # a structured breakdown step bounds the last provably reachable
        # order: vectors 0..step-1 were built before the failure
        step = getattr(exc, "step", None)
        if step is not None and 0 < step < spec.order:
            new_order = min(new_order, step)
        if new_order < floor or new_order >= spec.order:
            return None
        return AttemptSpec(
            engine=spec.engine,
            order=new_order,
            shift=spec.shift,
            policy=self.name,
            note=f"order backed off {spec.order} -> {new_order}",
            factor_method=spec.factor_method,
        )


class EngineFallbackPolicy(RecoveryPolicy):
    """Last resort: switch to a structurally different reduction engine."""

    name = "fallback-engine"

    def __init__(self, max_uses: int = 1):
        self.max_uses = max_uses
        self.uses = 0

    def propose(self, spec, exc, context):
        if context.fallback == "none" or self.uses >= self.max_uses:
            return None
        engine = context.fallback
        if engine == "sypvl" and context.system.num_ports != 1:
            engine = "arnoldi"
        if engine == spec.engine:
            return None
        self.uses += 1
        # fallbacks restart from the originally requested order: the
        # engine change, not the order, is the repair
        return AttemptSpec(
            engine=engine,
            order=context.requested_order,
            shift=spec.shift,
            policy=self.name,
            note=f"engine fallback {spec.engine} -> {engine}",
            factor_method=spec.factor_method,
        )


def default_policies(fallback: str = "arnoldi") -> list[RecoveryPolicy]:
    """The standard ladder, ordered cheapest repair first."""
    return [
        PerturbedRestartPolicy(),
        FactorizationFallbackPolicy(),
        ShiftRegularizationPolicy(),
        OrderBackoffPolicy(),
        EngineFallbackPolicy(),
    ]


class _PerturbedStartOperator:
    """Operator proxy whose starting block carries a tiny deterministic
    perturbation -- the perturbed-restart repair (the Krylov *space*
    changes, which is what escapes a defective start)."""

    def __init__(self, inner, seed: int, eps: float = _PERTURB_EPS):
        self._inner = inner
        self._seed = seed
        self._eps = eps

    def __getattr__(self, name):
        return getattr(self._inner, name)

    @property
    def size(self):
        return self._inner.size

    @property
    def num_inputs(self):
        return self._inner.num_inputs

    @property
    def j_is_identity(self):
        return self._inner.j_is_identity

    def start_block(self):
        start = np.array(self._inner.start_block(), dtype=float)
        rng = np.random.default_rng(self._seed)
        scale = float(np.linalg.norm(start))
        if scale == 0.0 or not np.isfinite(scale):
            return start
        return start + self._eps * scale * rng.standard_normal(start.shape)


@dataclass
class RobustReduction:
    """Outcome of :func:`robust_reduce`."""

    model: ReducedOrderModel | CongruenceModel
    engine: str
    requested_order: int
    certification: object | None
    health: ReductionHealth
    report: RecoveryReport
    fault_summary: dict | None = None

    @property
    def order(self) -> int:
        return self.model.order

    def diagnostics(self) -> dict:
        """JSON-serializable dump (the CLI ``--diagnostics`` payload)."""
        cert = self.certification
        return {
            "engine": self.engine,
            "order": self.order,
            "requested_order": self.requested_order,
            "certified": bool(cert.certified) if cert is not None else None,
            "recovery": self.report.to_dict(),
            "fault_injection": self.fault_summary,
            "health": self.health.to_dict(),
        }


def _run_arnoldi(system: MNASystem, spec: AttemptSpec) -> CongruenceModel:
    """Run the congruence fallback, resolving "auto" shifts like SyMPVL."""
    if isinstance(spec.shift, str):
        candidates = [0.0, default_shift(system)]
    else:
        candidates = [float(spec.shift)]
    last: Exception | None = None
    for sigma0 in candidates:
        try:
            return prima(system, spec.order, sigma0=sigma0)
        except ReductionError as exc:
            last = exc
    raise ReductionError(
        f"arnoldi fallback failed for every candidate shift: {last}"
    ) from last


def robust_reduce(
    system: MNASystem,
    order: int,
    *,
    shift: float | str = "auto",
    options: LanczosOptions | None = None,
    factor_method: str = "auto",
    max_retries: int = 5,
    fallback: str = "arnoldi",
    policies: list[RecoveryPolicy] | None = None,
    fault_plan: FaultPlan | None = None,
    monitor: HealthMonitor | None = None,
    clamp_on_cert_failure: bool = True,
) -> RobustReduction:
    """Reduce ``system`` with automatic failure recovery.

    Runs :func:`repro.core.sympvl` and, on any :class:`ReproError`,
    consults the recovery ``policies`` (default ladder above) for up to
    ``max_retries`` additional attempts.  Every attempt is recorded in
    the returned :class:`RobustReduction.report`; the shared health
    ``monitor`` (created when not supplied) collects diagnostics across
    all attempts.

    Parameters beyond :func:`sympvl`'s:

    max_retries:
        Maximum number of *recovery* attempts after the initial one.
    fallback:
        ``"sypvl"`` (one-ports; silently upgraded to ``"arnoldi"`` for
        multi-ports), ``"arnoldi"`` (default), or ``"none"`` to disable
        the engine-fallback repair.
    policies:
        Override the policy ladder (instances are consumed: their
        budgets are per-call only if you build fresh ones per call).
    fault_plan:
        Optional :class:`FaultPlan` whose faults are injected through
        the real operator/factorization seams (testing only).
    clamp_on_cert_failure:
        Apply eigenvalue clamping + re-certification when the section-5
        certificate fails on a Lanczos model; the clamped model is kept
        only when re-certification passes.

    Raises
    ------
    RecoveryExhaustedError
        When every attempt failed; carries the full ``report`` and the
        ``last_error``.
    """
    if fallback not in ("sypvl", "arnoldi", "none"):
        raise ReductionError(
            f"unknown fallback engine {fallback!r}; "
            "expected 'sypvl', 'arnoldi', or 'none'"
        )
    if monitor is None:
        monitor = HealthMonitor()
    if fault_plan is not None:
        fault_plan.monitor = monitor
    if policies is None:
        policies = default_policies(fallback)

    context = RecoveryContext(
        system=system, requested_order=order, fallback=fallback
    )
    report = RecoveryReport()
    spec = AttemptSpec(
        engine="sympvl", order=order, shift=shift, factor_method=factor_method
    )
    retries = 0

    def build_hooks(current: AttemptSpec):
        """Compose fault-injection and perturbed-restart wrappers."""
        factor_fn = None
        wrapper = None
        if fault_plan is not None:
            from repro.linalg.factorization import factor_symmetric

            factor_fn = fault_plan.wrap_factor(factor_symmetric)

            def wrapper(op, _plan=fault_plan):
                return _plan.wrap_operator(op)

        if current.perturb_seed is not None:
            inner_wrapper = wrapper

            def wrapper(op, _seed=current.perturb_seed, _w=inner_wrapper):
                if _w is not None:
                    op = _w(op)
                return _PerturbedStartOperator(op, _seed)

        return factor_fn, wrapper

    model: ReducedOrderModel | CongruenceModel | None = None
    while True:
        monitor.set_context(attempt=context.attempt_count, policy=spec.policy)
        factor_fn, wrapper = build_hooks(spec)
        try:
            if spec.engine == "arnoldi":
                model = _run_arnoldi(system, spec)
            else:
                model = sympvl(
                    system,
                    spec.order,
                    shift=spec.shift,
                    options=options,
                    factor_method=spec.factor_method,
                    monitor=monitor,
                    factor_fn=factor_fn,
                    operator_wrapper=wrapper,
                )
        except ReproError as exc:
            context.attempt_count += 1
            report.attempts.append(
                RecoveryAttempt(
                    policy=spec.policy,
                    engine=spec.engine,
                    order=spec.order,
                    shift=str(spec.shift),
                    succeeded=False,
                    error_class=type(exc).__name__,
                    error=str(exc),
                    note=spec.note,
                    factor_method=spec.factor_method,
                )
            )
            monitor.record(
                "recovery.failure",
                policy=spec.policy,
                engine=spec.engine,
                order=spec.order,
                error_class=type(exc).__name__,
                error=str(exc),
            )
            next_spec = None
            if retries < max_retries:
                for policy in policies:
                    next_spec = policy.propose(spec, exc, context)
                    if next_spec is not None:
                        break
            if next_spec is None:
                report.gave_up = True
                raise RecoveryExhaustedError(
                    f"reduction failed after {context.attempt_count} "
                    f"attempt(s); last error: {exc}",
                    report=report,
                    last_error=exc,
                ) from exc
            retries += 1
            monitor.record(
                "recovery.proposed",
                policy=next_spec.policy,
                engine=next_spec.engine,
                order=next_spec.order,
                shift=str(next_spec.shift),
                note=next_spec.note,
                factor_method=next_spec.factor_method,
            )
            spec = next_spec
            continue
        break

    context.attempt_count += 1
    report.attempts.append(
        RecoveryAttempt(
            policy=spec.policy,
            engine=spec.engine,
            order=spec.order,
            shift=str(spec.shift),
            succeeded=True,
            note=spec.note,
            factor_method=spec.factor_method,
        )
    )

    certification = None
    if isinstance(model, ReducedOrderModel):
        certification = certify(model, monitor=monitor)
        if (
            not certification.certified
            and clamp_on_cert_failure
            and not model.guaranteed_stable_passive
        ):
            clamped = clamp_spectrum(model)
            re_cert = certify(clamped, monitor=monitor)
            report.attempts.append(
                RecoveryAttempt(
                    policy="clamp-passivity",
                    engine=spec.engine,
                    order=spec.order,
                    shift=str(spec.shift),
                    succeeded=re_cert.certified,
                    note="eigenvalue clamping "
                    + ("accepted" if re_cert.certified else "rejected"),
                )
            )
            if re_cert.certified:
                model, certification = clamped, re_cert

    report.final_engine = spec.engine
    report.final_order = model.order
    return RobustReduction(
        model=model,
        engine=spec.engine,
        requested_order=order,
        certification=certification,
        health=monitor.report(),
        report=report,
        fault_summary=fault_plan.summary() if fault_plan is not None else None,
    )
