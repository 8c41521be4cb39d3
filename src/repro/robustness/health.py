"""Numerical health monitoring for the reduction pipeline.

A :class:`HealthMonitor` is an append-only log of structured events that
the numerical layers record into when one is supplied (the parameter is
optional everywhere; the hot paths pay nothing when it is ``None``):

* ``factor.*`` -- pivot extrema and margins from the Cholesky /
  Bunch-Kaufman factorizations, the method finally chosen, failures;
* ``shift.*`` -- expansion-point resolution attempts;
* ``lanczos.*`` -- deflation events with residual norms, look-ahead
  cluster closures with their J-Gram condition numbers, pseudo-inverse
  closes, non-finite candidates, final orthogonality loss;
* ``passivity.*`` -- the section-5 certificate and its hypothesis flags;
* ``recovery.*`` / ``fault.*`` -- recovery attempts and injected faults
  (written by :mod:`repro.robustness.recovery` and
  :mod:`repro.robustness.faultinject`);
* ``engine.*`` -- cache activity, compile fallbacks and process-pool
  sweep fallbacks (written by :mod:`repro.engine`);
* ``service.*`` -- degradation-tier switches, breaker transitions, and
  shed/retry decisions of the serving runtime
  (written by :mod:`repro.service`).

The monitor is deliberately decoupled from the numerical modules: they
duck-type against ``record(category, **data)`` only, so no import cycle
exists between :mod:`repro.core` / :mod:`repro.linalg` and this package.

:meth:`HealthMonitor.report` folds the event log into a
:class:`ReductionHealth` summary whose :meth:`ReductionHealth.to_dict`
output is JSON-serializable (the ``--diagnostics`` CLI dump).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any

__all__ = ["HealthEvent", "HealthMonitor", "ReductionHealth"]


def _jsonify(value: Any) -> Any:
    """Coerce numpy scalars/arrays, tuples, and exceptions to JSON types."""
    import numpy as np

    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, np.ndarray):
        return _jsonify(value.tolist())
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        value = float(value)
    if isinstance(value, float):
        # JSON has no NaN/Inf; encode them as strings so dumps() stays strict
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, BaseException):
        return f"{type(value).__name__}: {value}"
    return value


@dataclass(frozen=True)
class HealthEvent:
    """One recorded diagnostic: a category, a payload, and the context
    (recovery attempt number, policy name) active when it was recorded."""

    category: str
    data: dict
    context: dict

    def to_dict(self) -> dict:
        return {
            "category": self.category,
            "data": _jsonify(self.data),
            "context": _jsonify(self.context),
        }


class HealthMonitor:
    """Append-only structured diagnostic log for one reduction run.

    The same monitor instance is threaded through every layer (and, in
    robust mode, every recovery attempt -- distinguished by the
    ``attempt`` context field), so the report reflects the whole
    pipeline, not just the final successful attempt.
    """

    def __init__(self) -> None:
        self.events: list[HealthEvent] = []
        self._context: dict = {}

    def set_context(self, **context: Any) -> None:
        """Replace the context attached to subsequently recorded events."""
        self._context = dict(context)

    def record(self, category: str, **data: Any) -> None:
        """Append one event under the current context."""
        self.events.append(HealthEvent(category, data, dict(self._context)))

    def by_category(self, prefix: str) -> list[HealthEvent]:
        """Events whose category equals or starts with ``prefix.``."""
        return [
            e
            for e in self.events
            if e.category == prefix or e.category.startswith(prefix + ".")
        ]

    def report(self) -> "ReductionHealth":
        """Fold the event log into a :class:`ReductionHealth` summary."""
        return ReductionHealth.from_events(self.events)


@dataclass
class ReductionHealth:
    """Aggregated numerical-health summary of one reduction.

    ``healthy`` is the headline verdict: no breakdown/non-finite events,
    no factorization failure on the surviving attempt, and orthogonality
    loss (when measured) below ``orthogonality_threshold``.  The
    remaining fields localize any degradation; ``events`` keeps the raw
    log for forensic use.
    """

    #: orthogonality loss above this is flagged as unhealthy
    orthogonality_threshold: float = 1e-6

    healthy: bool = True
    factorization: dict | None = None
    shift_attempts: list[dict] = field(default_factory=list)
    deflations: list[dict] = field(default_factory=list)
    cluster_count: int = 0
    max_cluster_condition: float | None = None
    pseudo_inverse_closes: int = 0
    orthogonality_loss: float | None = None
    breakdowns: list[dict] = field(default_factory=list)
    passivity: dict | None = None
    faults_triggered: list[dict] = field(default_factory=list)
    recovery_failures: int = 0
    sweep_fallbacks: int = 0
    service_degradations: list[dict] = field(default_factory=list)
    events: list[HealthEvent] = field(default_factory=list)

    @classmethod
    def from_events(cls, events: list[HealthEvent]) -> "ReductionHealth":
        health = cls(events=list(events))
        for event in events:
            data = event.data
            if event.category in ("factor.method", "factor.pivots"):
                # pivot stats and the method-chosen event merge: either may
                # arrive first (pivots are recorded inside the factorization,
                # the method once the facade settles on one)
                base = health.factorization or {}
                method = data.get("method")
                base.update({k: v for k, v in data.items() if k != "method"})
                if method is not None:
                    base["method"] = method
                health.factorization = base
            elif event.category == "shift.candidate":
                health.shift_attempts.append(dict(data))
            elif event.category == "lanczos.deflation":
                health.deflations.append(dict(data))
            elif event.category == "lanczos.cluster":
                health.cluster_count += 1
                cond = data.get("condition")
                if cond is not None:
                    prev = health.max_cluster_condition
                    health.max_cluster_condition = (
                        cond if prev is None else max(prev, cond)
                    )
                if data.get("pseudo_inverse"):
                    health.pseudo_inverse_closes += 1
            elif event.category == "lanczos.orthogonality":
                health.orthogonality_loss = data.get("loss")
            elif event.category in ("lanczos.breakdown", "lanczos.nonfinite"):
                health.breakdowns.append(
                    {"category": event.category, **data}
                )
            elif event.category == "passivity.certify":
                health.passivity = dict(data)
            elif event.category == "fault.triggered":
                health.faults_triggered.append(dict(data))
            elif event.category == "recovery.failure":
                health.recovery_failures += 1
            elif event.category == "engine.sweep":
                health.sweep_fallbacks += 1
            elif event.category == "service.degrade":
                health.service_degradations.append(dict(data))

        loss_bad = (
            health.orthogonality_loss is not None
            and not math.isnan(health.orthogonality_loss)
            and health.orthogonality_loss > health.orthogonality_threshold
        )
        health.healthy = (
            not health.breakdowns
            and health.recovery_failures == 0
            and not loss_bad
        )
        return health

    def to_dict(self, *, include_events: bool = True) -> dict:
        """JSON-serializable summary (schema in ``docs/ROBUSTNESS.md``)."""
        out = {
            "healthy": self.healthy,
            "factorization": _jsonify(self.factorization),
            "shift_attempts": _jsonify(self.shift_attempts),
            "deflations": _jsonify(self.deflations),
            "clusters": {
                "count": self.cluster_count,
                "max_condition": _jsonify(self.max_cluster_condition),
                "pseudo_inverse_closes": self.pseudo_inverse_closes,
            },
            "orthogonality_loss": _jsonify(self.orthogonality_loss),
            "breakdowns": _jsonify(self.breakdowns),
            "passivity": _jsonify(self.passivity),
            "faults_triggered": _jsonify(self.faults_triggered),
            "recovery_failures": self.recovery_failures,
            "sweep_fallbacks": self.sweep_fallbacks,
            "service_degradations": _jsonify(self.service_degradations),
        }
        if include_events:
            out["events"] = [e.to_dict() for e in self.events]
        return out

    def to_json(self, **kwargs: Any) -> str:
        kwargs.setdefault("indent", 2)
        return json.dumps(self.to_dict(), allow_nan=False, **kwargs)
