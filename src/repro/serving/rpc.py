"""The ``repro.rpc/v1`` wire schema: versioned JSON for the network edge.

Everything that crosses the process boundary — requests into
:class:`~repro.serving.NetworkServer`, responses back to
:class:`~repro.serving.RemoteForecastService` — is a JSON document
tagged ``"schema": "repro.rpc/v1"``.  This module is the single source
of truth for that schema: both sides encode and decode through it, the
golden-fixture suite (``tests/serving/test_rpc_schema.py``) pins every
payload shape to committed JSON files, and decoders *reject* rather
than ignore anything off-schema (unknown fields, missing/unsupported
versions, non-numeric windows), so the wire format can never drift
silently.

Endpoints and their payloads:

==========================  =================================================
endpoint                    payload builders
==========================  =================================================
``POST /v1/predict``        :func:`encode_predict_request` /
                            :func:`encode_predict_response`
``POST /v1/predict_batch``  :func:`encode_batch_request` /
                            :func:`encode_batch_response`
``GET /healthz``            :func:`encode_health_response`
``GET /statz``              :func:`encode_stats_response`
(any, on failure)           :func:`encode_error` / :func:`decode_error`
==========================  =================================================

Failures travel as ``{"schema": ..., "error": {"code", "message"}}``
documents whose ``code`` is one wire name per taxonomy class (see
:data:`ERROR_CODES`), so a typed :class:`~repro.serving.ServingError`
raised server-side re-raises as the *same type* client-side.

Arrays ride as nested JSON lists of floats.  Python's ``json`` emits
``repr(float)``, which round-trips IEEE doubles exactly — predictions
decoded from the wire are bitwise-equal to the server's arrays, the
property the E2E suite locks.
"""

from __future__ import annotations

import json
from types import MappingProxyType

import numpy as np

from .errors import (
    ArtifactLoadError,
    BadRequestError,
    CircuitOpenError,
    DeadlineExceededError,
    RateLimitedError,
    RemoteError,
    ServiceOverloadedError,
    ServiceStoppedError,
    ServingError,
    WorkerCrashedError,
)

__all__ = [
    "RPC_SCHEMA",
    "ERROR_CODES",
    "encode_predict_request",
    "decode_predict_request",
    "encode_predict_response",
    "decode_predict_response",
    "encode_batch_request",
    "decode_batch_request",
    "encode_batch_response",
    "decode_batch_response",
    "encode_health_response",
    "encode_stats_response",
    "encode_error",
    "decode_error",
    "loads",
]

#: The wire schema version every payload must carry.  Bump only with a
#: decoder that still accepts (or explicitly migrates) the old tag.
RPC_SCHEMA = "repro.rpc/v1"

#: Wire error code and HTTP status for every typed serving failure.
#: Ordered most-specific-first: the encoder walks it with ``isinstance``,
#: so subclasses (RateLimitedError < ServiceOverloadedError) must appear
#: before their bases.  Read-only by construction.
ERROR_CODES = MappingProxyType(
    {
        "bad_request": (BadRequestError, 400),
        "rate_limited": (RateLimitedError, 429),
        "overloaded": (ServiceOverloadedError, 429),
        "deadline_exceeded": (DeadlineExceededError, 504),
        "stopped": (ServiceStoppedError, 503),
        "circuit_open": (CircuitOpenError, 503),
        "worker_crashed": (WorkerCrashedError, 500),
        "artifact_load": (ArtifactLoadError, 500),
        "remote": (RemoteError, 502),
        "internal": (ServingError, 500),
    }
)


def loads(body: bytes | str) -> dict:
    """Parse a wire payload: JSON that must decode to an object.

    Raises :class:`~repro.serving.BadRequestError` on malformed JSON,
    nesting too deep for the parser, or a non-object top level — the 400
    path of every POST endpoint, and the client's check on every reply
    (which :class:`~repro.serving.RemoteForecastService` maps to
    :class:`~repro.serving.RemoteError`).
    """
    try:
        payload = json.loads(body)
    except (ValueError, UnicodeDecodeError, RecursionError) as exc:
        raise BadRequestError(f"body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise BadRequestError(f"body must be a JSON object, got {type(payload).__name__}")
    return payload


def _check_envelope(payload: dict, allowed: frozenset, kind: str) -> None:
    """Version + closed-field-set validation shared by every decoder."""
    if not isinstance(payload, dict):
        raise BadRequestError(f"{kind} must be a JSON object, got {type(payload).__name__}")
    version = payload.get("schema")
    if version is None:
        raise BadRequestError(f"{kind} is missing the 'schema' version tag")
    if version != RPC_SCHEMA:
        raise BadRequestError(
            f"unsupported {kind} schema {version!r} (this endpoint speaks {RPC_SCHEMA})"
        )
    unknown = set(payload) - allowed
    if unknown:
        raise BadRequestError(
            f"{kind} carries unknown fields {sorted(unknown)}; the {RPC_SCHEMA} "
            "schema rejects fields it would silently ignore"
        )


def _decode_window(value, field: str) -> np.ndarray:
    """A numeric ``(R, W, C)`` array from nested JSON lists."""
    try:
        window = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadRequestError(f"{field!r} is not a numeric array: {exc}") from exc
    if window.ndim != 3 or window.size == 0:
        raise BadRequestError(
            f"{field!r} must be a non-empty (regions, window, categories) array, "
            f"got shape {window.shape}"
        )
    if not np.isfinite(window).all():
        raise BadRequestError(f"{field!r} contains non-finite values")
    return window


def _decode_deadline(payload: dict) -> float | None:
    """``deadline_ms`` as seconds, validated positive-finite when present."""
    raw = payload.get("deadline_ms")
    if raw is None:
        return None
    if not isinstance(raw, (int, float)) or isinstance(raw, bool) or not raw > 0:
        raise BadRequestError(f"'deadline_ms' must be a positive number, got {raw!r}")
    if not np.isfinite(raw):
        raise BadRequestError("'deadline_ms' must be finite")
    return float(raw) / 1000.0


def _decode_tenant(payload: dict) -> str:
    tenant = payload.get("tenant", "")
    if not isinstance(tenant, str):
        raise BadRequestError(f"'tenant' must be a string, got {type(tenant).__name__}")
    return tenant


_PREDICT_REQUEST_FIELDS = frozenset({"schema", "window", "deadline_ms", "tenant"})
_BATCH_REQUEST_FIELDS = frozenset({"schema", "windows", "deadline_ms", "tenant"})
_PREDICT_RESPONSE_FIELDS = frozenset({"schema", "prediction", "degraded", "tier"})
_BATCH_RESPONSE_FIELDS = frozenset({"schema", "predictions", "degraded", "tier"})
_ERROR_FIELDS = frozenset({"schema", "error"})


# ----------------------------------------------------------------------
# /v1/predict
# ----------------------------------------------------------------------
def encode_predict_request(
    window: np.ndarray, *, deadline: float | None = None, tenant: str = ""
) -> dict:
    """The ``POST /v1/predict`` body for one raw-count ``(R, W, C)`` window.

    ``deadline`` is the request's time budget in **seconds** (it rides
    the wire as ``deadline_ms``); ``tenant`` names the rate-limiting
    principal (empty string = the anonymous default tenant).
    """
    payload: dict = {"schema": RPC_SCHEMA, "window": np.asarray(window, dtype=float).tolist()}
    if deadline is not None:
        payload["deadline_ms"] = deadline * 1000.0
    if tenant:
        payload["tenant"] = tenant
    return payload


def decode_predict_request(payload: dict) -> tuple[np.ndarray, float | None, str]:
    """Validate a predict request: ``(window, deadline_seconds, tenant)``.

    Rejects (``BadRequestError``) a wrong/missing schema version, unknown
    fields, and windows that are not finite numeric ``(R, W, C)`` arrays.
    """
    _check_envelope(payload, _PREDICT_REQUEST_FIELDS, "predict request")
    if "window" not in payload:
        raise BadRequestError("predict request is missing 'window'")
    window = _decode_window(payload["window"], "window")
    return window, _decode_deadline(payload), _decode_tenant(payload)


def encode_predict_response(prediction: np.ndarray, *, degraded: bool = False, tier: int = 0) -> dict:
    """The ``POST /v1/predict`` success body: one ``(R, C)`` prediction.

    ``degraded``/``tier`` mirror the service handle: which
    :class:`~repro.serving.FallbackChain` tier answered (0 = primary).
    """
    return {
        "schema": RPC_SCHEMA,
        "prediction": np.asarray(prediction, dtype=float).tolist(),
        "degraded": bool(degraded),
        "tier": int(tier),
    }


def decode_predict_response(payload: dict) -> tuple[np.ndarray, bool, int]:
    """Validate a predict response: ``(prediction, degraded, tier)``."""
    _check_envelope(payload, _PREDICT_RESPONSE_FIELDS, "predict response")
    if "prediction" not in payload:
        raise BadRequestError("predict response is missing 'prediction'")
    try:
        prediction = np.asarray(payload["prediction"], dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadRequestError(f"'prediction' is not a numeric array: {exc}") from exc
    return prediction, bool(payload.get("degraded", False)), int(payload.get("tier", 0))


# ----------------------------------------------------------------------
# /v1/predict_batch
# ----------------------------------------------------------------------
def encode_batch_request(
    windows, *, deadline: float | None = None, tenant: str = ""
) -> dict:
    """The ``POST /v1/predict_batch`` body for a list of ``(R, W, C)`` windows."""
    payload: dict = {
        "schema": RPC_SCHEMA,
        "windows": [np.asarray(w, dtype=float).tolist() for w in windows],
    }
    if deadline is not None:
        payload["deadline_ms"] = deadline * 1000.0
    if tenant:
        payload["tenant"] = tenant
    return payload


def decode_batch_request(payload: dict) -> tuple[list[np.ndarray], float | None, str]:
    """Validate a batch request: ``(windows, deadline_seconds, tenant)``."""
    _check_envelope(payload, _BATCH_REQUEST_FIELDS, "predict_batch request")
    if "windows" not in payload:
        raise BadRequestError("predict_batch request is missing 'windows'")
    raw = payload["windows"]
    if not isinstance(raw, list) or not raw:
        raise BadRequestError("'windows' must be a non-empty list of (R, W, C) arrays")
    windows = [_decode_window(item, f"windows[{i}]") for i, item in enumerate(raw)]
    return windows, _decode_deadline(payload), _decode_tenant(payload)


def encode_batch_response(predictions, *, degraded=None, tier=None) -> dict:
    """The ``POST /v1/predict_batch`` success body: per-window results.

    ``degraded``/``tier`` are per-window lists (a batch may straddle a
    fallback transition, so each window reports its own serving tier);
    ``None`` means all-primary.
    """
    predictions = [np.asarray(p, dtype=float).tolist() for p in predictions]
    count = len(predictions)
    return {
        "schema": RPC_SCHEMA,
        "predictions": predictions,
        "degraded": [bool(d) for d in degraded] if degraded is not None else [False] * count,
        "tier": [int(t) for t in tier] if tier is not None else [0] * count,
    }


def decode_batch_response(payload: dict) -> tuple[list[np.ndarray], list[bool], list[int]]:
    """Validate a batch response: ``(predictions, degraded, tier)`` lists."""
    _check_envelope(payload, _BATCH_RESPONSE_FIELDS, "predict_batch response")
    if "predictions" not in payload:
        raise BadRequestError("predict_batch response is missing 'predictions'")
    raw = payload["predictions"]
    if not isinstance(raw, list):
        raise BadRequestError("'predictions' must be a list")
    try:
        predictions = [np.asarray(item, dtype=float) for item in raw]
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadRequestError(f"'predictions' is not a list of numeric arrays: {exc}") from exc
    count = len(predictions)
    degraded = [bool(d) for d in payload.get("degraded", [False] * count)]
    tier = [int(t) for t in payload.get("tier", [0] * count)]
    if len(degraded) != count or len(tier) != count:
        raise BadRequestError("'degraded'/'tier' must match 'predictions' in length")
    return predictions, degraded, tier


# ----------------------------------------------------------------------
# /healthz and /statz
# ----------------------------------------------------------------------
def encode_health_response(running: bool, *, model: str | None = None) -> dict:
    """The ``GET /healthz`` body: liveness plus the served model's name."""
    payload: dict = {"schema": RPC_SCHEMA, "status": "ok" if running else "stopped",
                     "running": bool(running)}
    if model is not None:
        payload["model"] = model
    return payload


def encode_stats_response(stats: dict) -> dict:
    """The ``GET /statz`` body around a JSON-safe stats mapping.

    ``stats`` is typically ``ServiceStats.to_dict()`` merged with the
    server's own edge counters (see
    :meth:`~repro.serving.NetworkServer.stats`).
    """
    return {"schema": RPC_SCHEMA, "stats": dict(stats)}


# ----------------------------------------------------------------------
# Errors
# ----------------------------------------------------------------------
def encode_error(error: BaseException) -> tuple[int, dict]:
    """``(http_status, payload)`` for a failure crossing the wire.

    Typed serving errors map to their :data:`ERROR_CODES` entry (the
    most specific matching class wins); anything else is ``internal``
    with the exception's repr as the message, so raw backend failures
    surface without leaking a stack trace.
    """
    for code, (cls, status) in ERROR_CODES.items():
        if isinstance(error, cls):
            return status, {
                "schema": RPC_SCHEMA,
                "error": {"code": code, "message": str(error) or code},
            }
    return 500, {
        "schema": RPC_SCHEMA,
        "error": {"code": "internal", "message": repr(error)},
    }


def decode_error(payload: dict) -> ServingError:
    """The typed exception a wire error payload describes (not raised).

    Unknown codes decode as plain :class:`~repro.serving.ServingError`
    so a newer server cannot crash an older client; an off-schema error
    document is itself a :class:`~repro.serving.BadRequestError`.
    """
    _check_envelope(payload, _ERROR_FIELDS, "error response")
    body = payload.get("error")
    if not isinstance(body, dict) or "code" not in body:
        raise BadRequestError("error response is missing the 'error': {code, message} body")
    code = body["code"]
    message = body.get("message", code)
    cls, _status = ERROR_CODES.get(code, (ServingError, 500))
    return cls(message)
