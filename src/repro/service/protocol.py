"""Wire protocol of the macromodel service.

One request / response schema shared by both fronts (stdio-JSONL and
HTTP); the fronts only differ in framing.

Request (one JSON object per line on stdio)::

    {"id": "r1", "op": "reduce",
     "params": {"netlist": "...", "order": 8, "engine": "sympvl",
                "shift": "auto", "robust": false},
     "deadline_ms": 10000}

    {"id": "r2", "op": "sweep",
     "params": {"netlist": "...", "order": 8, "band": [1e7, 1e10],
                "points": 40, "exact": false, "return_values": false}}

    {"id": "s1", "op": "stats"}
    {"id": "h1", "op": "healthz"}
    {"id": "q1", "op": "shutdown"}

Response::

    {"id": "r1", "ok": true, "result": {...}, "elapsed_ms": 12.3}
    {"id": "r1", "ok": false,
     "error": {"code": "overloaded", "message": "..."}, "elapsed_ms": 0.1}

Error codes (``docs/SERVICE.md`` documents the failure semantics):

==================== ====================================================
``bad_request``      malformed JSON, unknown op, invalid params
``overloaded``       admission queue full; the request was shed
``deadline_exceeded``the per-request wall budget ran out
``reduction_failed`` every reduction attempt (incl. recovery) failed
``simulation_failed``the sweep hit a genuinely singular point
``shutting_down``    the service is draining; no new work accepted
``internal``         unexpected failure (bug); message carries the class
==================== ====================================================
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from repro.errors import ReproError

__all__ = [
    "OPS",
    "ERROR_CODES",
    "ProtocolError",
    "Request",
    "ok_response",
    "error_response",
    "encode_line",
    "decode_line",
]

OPS = ("reduce", "sweep", "stats", "healthz", "shutdown")

ERROR_CODES = (
    "bad_request",
    "overloaded",
    "deadline_exceeded",
    "reduction_failed",
    "simulation_failed",
    "shutting_down",
    "internal",
)


class ProtocolError(ReproError):
    """A malformed request (mapped to the ``bad_request`` error code)."""


@dataclass
class Request:
    """One validated request."""

    id: str
    op: str
    params: dict = field(default_factory=dict)
    deadline_ms: float | None = None

    @classmethod
    def from_dict(cls, payload) -> "Request":
        if not isinstance(payload, dict):
            raise ProtocolError("request must be a JSON object")
        request_id = payload.get("id")
        if request_id is None:
            raise ProtocolError("request is missing 'id'")
        op = payload.get("op")
        if op not in OPS:
            raise ProtocolError(
                f"unknown op {op!r}; expected one of {', '.join(OPS)}"
            )
        params = payload.get("params", {})
        if not isinstance(params, dict):
            raise ProtocolError("'params' must be a JSON object")
        deadline_ms = payload.get("deadline_ms")
        if deadline_ms is not None:
            try:
                deadline_ms = float(deadline_ms)
            except (TypeError, ValueError):
                raise ProtocolError("'deadline_ms' must be a number") from None
            if not 0 < deadline_ms < math.inf:
                raise ProtocolError("'deadline_ms' must be finite and > 0")
        return cls(
            id=str(request_id), op=op, params=params, deadline_ms=deadline_ms
        )


def ok_response(request_id: str, result: dict, *, elapsed: float) -> dict:
    return {
        "id": request_id,
        "ok": True,
        "result": result,
        "elapsed_ms": round(elapsed * 1e3, 3),
    }


def error_response(
    request_id: str | None,
    code: str,
    message: str,
    *,
    elapsed: float = 0.0,
    **extra,
) -> dict:
    if code not in ERROR_CODES:  # defensive: never emit unknown codes
        code = "internal"
    error = {"code": code, "message": message}
    error.update(extra)
    return {
        "id": request_id,
        "ok": False,
        "error": error,
        "elapsed_ms": round(elapsed * 1e3, 3),
    }


def encode_line(payload: dict) -> str:
    """One response as a compact JSONL line (trailing newline included)."""
    return json.dumps(payload, separators=(",", ":")) + "\n"


def decode_line(line: str) -> Request:
    """Parse and validate one JSONL request line."""
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"invalid JSON: {exc}") from None
    return Request.from_dict(payload)
