"""Wire-protocol validation and response shaping."""

from __future__ import annotations

import json

import pytest

from repro.service.protocol import (
    ERROR_CODES,
    ProtocolError,
    Request,
    decode_line,
    encode_line,
    error_response,
    ok_response,
)


class TestRequestValidation:
    def test_minimal(self):
        r = Request.from_dict({"id": "r1", "op": "stats"})
        assert (r.id, r.op, r.params, r.deadline_ms) == (
            "r1", "stats", {}, None
        )

    def test_full(self):
        r = Request.from_dict({
            "id": 7, "op": "reduce", "params": {"order": 4},
            "deadline_ms": 250,
        })
        assert r.id == "7"  # coerced to string
        assert r.deadline_ms == 250.0

    @pytest.mark.parametrize("payload,match", [
        ("not a dict", "JSON object"),
        ({"op": "stats"}, "missing 'id'"),
        ({"id": "x", "op": "nope"}, "unknown op"),
        ({"id": "x", "op": "stats", "params": []}, "'params'"),
        ({"id": "x", "op": "stats", "deadline_ms": "soon"}, "deadline_ms"),
        ({"id": "x", "op": "stats", "deadline_ms": 0}, "deadline_ms"),
        ({"id": "x", "op": "stats", "deadline_ms": -5}, "deadline_ms"),
    ])
    def test_rejects(self, payload, match):
        with pytest.raises(ProtocolError, match=match):
            Request.from_dict(payload)

    @pytest.mark.parametrize("deadline", [float("nan"), float("inf"), "NaN"])
    def test_rejects_non_finite_deadline(self, deadline):
        # NaN fails every comparison, so "<= 0" alone let it through
        with pytest.raises(ProtocolError, match="finite"):
            Request.from_dict(
                {"id": "x", "op": "stats", "deadline_ms": deadline}
            )


class TestResponses:
    def test_ok_shape(self):
        resp = ok_response("r1", {"a": 1}, elapsed=0.0123)
        assert resp == {
            "id": "r1", "ok": True, "result": {"a": 1},
            "elapsed_ms": 12.3,
        }

    def test_error_shape_with_extra(self):
        resp = error_response(
            "r1", "overloaded", "queue full", retry_after_ms=100
        )
        assert resp["ok"] is False
        assert resp["error"]["code"] == "overloaded"
        assert resp["error"]["retry_after_ms"] == 100

    def test_unknown_code_coerced(self):
        resp = error_response("r1", "not-a-code", "weird")
        assert resp["error"]["code"] == "internal"

    def test_every_documented_code_round_trips(self):
        for code in ERROR_CODES:
            assert error_response("x", code, "m")["error"]["code"] == code


class TestFraming:
    def test_encode_is_single_json_line(self):
        line = encode_line(ok_response("r1", {}, elapsed=0.0))
        assert line.endswith("\n")
        assert "\n" not in line[:-1]
        assert json.loads(line)["id"] == "r1"

    def test_decode_round_trip(self):
        r = decode_line('{"id":"a","op":"sweep","params":{"points":3}}')
        assert r.op == "sweep"
        assert r.params == {"points": 3}

    def test_decode_bad_json(self):
        with pytest.raises(ProtocolError, match="invalid JSON"):
            decode_line("{nope")
