"""Golden-fixture contract for the ``repro.rpc/v1`` wire schema.

Every endpoint's request and response payload is pinned to a committed
JSON file under ``fixtures/rpc/``: the encoders must reproduce the
fixtures byte-for-byte (modulo key order — we compare parsed documents),
and the decoders must round-trip them bitwise.  Any change to the wire
format shows up here as a fixture diff, so the schema cannot drift
silently under a client that is already deployed.

The rejection half locks the *closed* nature of the schema: decoders
refuse unknown fields, missing/unsupported ``schema`` tags, and
malformed bodies — with :class:`~repro.serving.BadRequestError`, never
silently.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.serving import BadRequestError, RPC_SCHEMA, ServingError, rpc

FIXTURES = Path(__file__).parent / "fixtures" / "rpc"


def load_fixture(name: str) -> dict:
    return json.loads((FIXTURES / name).read_text())


def window() -> np.ndarray:
    # Non-round floats so the JSON repr(float) round trip is exercised.
    return np.arange(12, dtype=float).reshape(2, 3, 2) / 7.0


def prediction() -> np.ndarray:
    return np.arange(4, dtype=float).reshape(2, 2) / 3.0


# ----------------------------------------------------------------------
# Golden payloads: encoders reproduce the committed fixtures exactly
# ----------------------------------------------------------------------
def test_predict_request_matches_golden():
    encoded = rpc.encode_predict_request(window(), deadline=0.25, tenant="team-a")
    assert encoded == load_fixture("predict_request.json")


def test_predict_response_matches_golden():
    encoded = rpc.encode_predict_response(prediction(), degraded=True, tier=2)
    assert encoded == load_fixture("predict_response.json")


def test_batch_request_matches_golden():
    encoded = rpc.encode_batch_request(
        [window(), window() + 1.0], deadline=1.5, tenant="team-b"
    )
    assert encoded == load_fixture("batch_request.json")


def test_batch_response_matches_golden():
    encoded = rpc.encode_batch_response(
        [prediction(), prediction() * 2.0], degraded=[False, True], tier=[0, 1]
    )
    assert encoded == load_fixture("batch_response.json")


def test_health_response_matches_golden():
    assert rpc.encode_health_response(True, model="sthsl.npz") == load_fixture(
        "health_response.json"
    )


def test_stats_response_matches_golden():
    golden = load_fixture("stats_response.json")
    assert rpc.encode_stats_response(golden["stats"]) == golden


def test_every_error_code_matches_golden():
    golden = load_fixture("error_responses.json")
    assert set(golden) == set(rpc.ERROR_CODES), "fixture must cover every code"
    for code, (cls, status) in rpc.ERROR_CODES.items():
        got_status, payload = rpc.encode_error(cls(f"golden {code} failure"))
        assert got_status == golden[code]["status"]
        assert payload == golden[code]["payload"]


# ----------------------------------------------------------------------
# Round trips (through a real JSON serialize/parse cycle, bitwise)
# ----------------------------------------------------------------------
def reserialize(payload: dict) -> dict:
    return json.loads(json.dumps(payload))


def test_predict_request_round_trip_is_bitwise():
    encoded = reserialize(rpc.encode_predict_request(window(), deadline=0.25, tenant="t"))
    decoded, deadline, tenant = rpc.decode_predict_request(encoded)
    assert np.array_equal(decoded, window())  # bitwise: repr(float) round trip
    assert deadline == 0.25
    assert tenant == "t"


def test_predict_request_defaults():
    decoded, deadline, tenant = rpc.decode_predict_request(
        reserialize(rpc.encode_predict_request(window()))
    )
    assert deadline is None and tenant == ""


def test_predict_response_round_trip_is_bitwise():
    encoded = reserialize(rpc.encode_predict_response(prediction(), degraded=True, tier=1))
    decoded, degraded, tier = rpc.decode_predict_response(encoded)
    assert np.array_equal(decoded, prediction())
    assert degraded is True and tier == 1


def test_batch_round_trip_is_bitwise():
    windows = [window(), window() * 3.0 + 0.1]
    encoded = reserialize(rpc.encode_batch_request(windows, deadline=2.0))
    decoded, deadline, _tenant = rpc.decode_batch_request(encoded)
    assert len(decoded) == 2
    assert all(np.array_equal(d, w) for d, w in zip(decoded, windows))
    assert deadline == 2.0

    preds = [prediction(), prediction() + 0.5]
    out = reserialize(rpc.encode_batch_response(preds, degraded=[True, False], tier=[2, 0]))
    got, degraded, tier = rpc.decode_batch_response(out)
    assert all(np.array_equal(g, p) for g, p in zip(got, preds))
    assert degraded == [True, False] and tier == [2, 0]


def test_deadline_rides_as_milliseconds():
    encoded = rpc.encode_predict_request(window(), deadline=0.5)
    assert encoded["deadline_ms"] == 500.0
    _w, deadline, _t = rpc.decode_predict_request(encoded)
    assert deadline == 0.5


def test_error_codes_round_trip_to_the_same_type():
    for code, (cls, _status) in rpc.ERROR_CODES.items():
        _status2, payload = rpc.encode_error(cls("boom"))
        decoded = rpc.decode_error(reserialize(payload))
        assert type(decoded) is cls, f"{code} decoded as {type(decoded).__name__}"
        assert "boom" in str(decoded)


# The second code is retired, but an older server may still send it.
@pytest.mark.parametrize("code", ["flux_capacitor", "shard_failed"])
def test_unknown_error_code_decodes_as_base_serving_error(code):
    payload = {"schema": RPC_SCHEMA, "error": {"code": code, "message": "?"}}
    decoded = rpc.decode_error(payload)
    assert type(decoded) is ServingError


def test_untyped_exception_encodes_as_internal():
    status, payload = rpc.encode_error(ZeroDivisionError("oops"))
    assert status == 500
    assert payload["error"]["code"] == "internal"
    assert "oops" in payload["error"]["message"]


# ----------------------------------------------------------------------
# Rejection: the schema is closed
# ----------------------------------------------------------------------
DECODERS = [
    pytest.param(rpc.decode_predict_request, "predict_request.json", id="predict_request"),
    pytest.param(rpc.decode_predict_response, "predict_response.json", id="predict_response"),
    pytest.param(rpc.decode_batch_request, "batch_request.json", id="batch_request"),
    pytest.param(rpc.decode_batch_response, "batch_response.json", id="batch_response"),
]


@pytest.mark.parametrize("decode,fixture", DECODERS)
def test_unknown_fields_are_rejected(decode, fixture):
    payload = load_fixture(fixture)
    payload["surprise"] = 1
    with pytest.raises(BadRequestError, match="unknown fields"):
        decode(payload)


@pytest.mark.parametrize("decode,fixture", DECODERS)
def test_wrong_schema_version_is_rejected(decode, fixture):
    payload = load_fixture(fixture)
    payload["schema"] = "repro.rpc/v999"
    with pytest.raises(BadRequestError, match="unsupported"):
        decode(payload)


@pytest.mark.parametrize("decode,fixture", DECODERS)
def test_missing_schema_version_is_rejected(decode, fixture):
    payload = load_fixture(fixture)
    del payload["schema"]
    with pytest.raises(BadRequestError, match="missing the 'schema'"):
        decode(payload)


def test_error_envelope_is_also_closed():
    golden = load_fixture("error_responses.json")["internal"]["payload"]
    with pytest.raises(BadRequestError):
        rpc.decode_error({**golden, "extra": True})
    with pytest.raises(BadRequestError):
        rpc.decode_error({"schema": RPC_SCHEMA, "error": "not-a-dict"})


@pytest.mark.parametrize(
    "body,match",
    [
        (b"{nope", "not valid JSON"),
        (b"[1, 2, 3]", "JSON object"),
        (b"[" * 5000 + b"]" * 5000, "not valid JSON"),  # deeper than the parser recurses
    ],
    ids=["not-json", "non-object", "deep-nesting"],
)
def test_loads_rejects_malformed_bodies(body, match):
    with pytest.raises(BadRequestError, match=match):
        rpc.loads(body)


@pytest.mark.parametrize(
    "decode,payload",
    [
        pytest.param(
            rpc.decode_predict_response,
            {"schema": RPC_SCHEMA, "prediction": [[10**400]]},
            id="predict",
        ),
        pytest.param(
            rpc.decode_batch_response,
            {"schema": RPC_SCHEMA, "predictions": [[[10**400]]]},
            id="batch",
        ),
    ],
)
def test_response_with_integer_too_large_for_float64_is_rejected(decode, payload):
    with pytest.raises(BadRequestError, match="numeric"):
        decode(payload)


@pytest.mark.parametrize(
    "decode,field",
    [
        pytest.param(rpc.decode_predict_request, "window", id="predict"),
        pytest.param(rpc.decode_batch_request, "windows", id="batch"),
    ],
)
@pytest.mark.parametrize(
    "bad",
    [
        [[1.0, 2.0]],  # 2-D, not (R, W, C)
        [],  # empty
        [[["x"]]],  # non-numeric
        [[[float("nan")]]],  # non-finite
        [[[float("inf")]]],  # non-finite
        [[[10**400]]],  # integer too large for float64
    ],
    ids=["2d", "empty", "non-numeric", "nan", "inf", "overflow"],
)
def test_bad_windows_are_rejected(decode, field, bad):
    value = bad if field == "window" else [bad]
    with pytest.raises(BadRequestError):
        decode({"schema": RPC_SCHEMA, field: value})


def test_missing_window_is_rejected():
    with pytest.raises(BadRequestError, match="missing 'window'"):
        rpc.decode_predict_request({"schema": RPC_SCHEMA})


@pytest.mark.parametrize("bad", [0, -1, "fast", True, float("inf")])
def test_bad_deadlines_are_rejected(bad):
    payload = {"schema": RPC_SCHEMA, "window": window().tolist(), "deadline_ms": bad}
    with pytest.raises(BadRequestError, match="deadline_ms"):
        rpc.decode_predict_request(payload)


def test_batch_length_mismatch_is_rejected():
    payload = rpc.encode_batch_response([prediction()], degraded=[False], tier=[0])
    payload["tier"] = [0, 1]
    with pytest.raises(BadRequestError, match="match 'predictions'"):
        rpc.decode_batch_response(payload)
