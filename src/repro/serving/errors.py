"""Typed exception taxonomy for the serving layer.

Every failure mode the serving stack can produce has a named exception
rooted at :class:`ServingError`, so callers (and the HTTP edge, which
maps each to a wire code and status) can branch on *what went wrong*
instead of parsing messages: shed a :class:`DeadlineExceededError` as a
timeout status, a :class:`ServiceOverloadedError` as HTTP 429
backpressure, a :class:`CircuitOpenError` as fail-fast unavailability,
and so on.

:class:`ServingError` subclasses ``RuntimeError`` so pre-taxonomy callers
that caught ``RuntimeError`` keep working; :class:`DeadlineExceededError`
additionally subclasses the built-in ``TimeoutError`` so generic timeout
handling (``except TimeoutError``) catches deadline expiry too.
"""

from __future__ import annotations

__all__ = [
    "ServingError",
    "DeadlineExceededError",
    "ServiceOverloadedError",
    "ServiceStoppedError",
    "CircuitOpenError",
    "ArtifactLoadError",
    "WorkerCrashedError",
    "BadRequestError",
    "RateLimitedError",
    "RemoteError",
]


class ServingError(RuntimeError):
    """Base class for every typed failure the serving stack raises.

    Catching it handles any serving-layer failure uniformly while still
    letting specific handlers branch on the subclasses::

        try:
            counts = service.predict(window, deadline=0.25)
        except ServingError as exc:
            log.warning("request failed: %s", exc)
    """


class DeadlineExceededError(ServingError, TimeoutError):
    """A request's deadline expired before a worker computed it.

    Raised by the worker when it sheds an expired request at drain time
    (before compute, never after), and by ``wait`` when the client-side
    deadline backstop trips.  Subclasses ``TimeoutError`` so generic
    timeout handling still applies::

        handle = service.submit(window, deadline=0.05)
        try:
            handle.wait()
        except DeadlineExceededError:
            ...  # shed — the model never ran for this request
    """


class ServiceOverloadedError(ServingError):
    """The admission queue is full; the request was shed at submit time.

    This is the in-process backpressure primitive: the network edge maps
    it to HTTP 429.  Clients should back off and retry::

        service = ForecastService(backend, max_queue=64)
        try:
            service.submit(window)
        except ServiceOverloadedError:
            ...  # queue depth hit max_queue — retry later
    """


class ServiceStoppedError(ServingError):
    """A request was submitted to a service that is not running.

    Raised by ``submit``/``predict`` before :meth:`ForecastService.start`
    or after :meth:`ForecastService.stop`::

        service = ForecastService(backend)
        service.stop()
        service.submit(window)  # raises ServiceStoppedError
    """


class CircuitOpenError(ServingError):
    """A circuit breaker is open: the call failed fast without running.

    Raised when a :class:`~repro.serving.CircuitBreaker` guarding a
    model or fallback tier refuses traffic after too many consecutive
    failures (and no fallback tier could answer)::

        try:
            chain.predict(window)
        except CircuitOpenError:
            ...  # every tier is broken; probe again after reset_timeout
    """


class ArtifactLoadError(ServingError):
    """A checkpoint artifact failed to load (and may be quarantined).

    Raised by :class:`~repro.serving.ModelPool` when ``Forecaster.load``
    fails after any configured retries; the pool quarantines the path for
    a cooldown so a corrupted file cannot trigger a load retry storm::

        try:
            pool.get("corrupt.npz")
        except ArtifactLoadError as exc:
            print(exc.__cause__)  # the underlying loader error
    """


class BadRequestError(ServingError, ValueError):
    """A request payload violated the ``repro.rpc/v1`` wire schema.

    Raised by :mod:`repro.serving.rpc` decoders for malformed JSON,
    unknown fields, a missing/unsupported ``schema`` tag, or windows
    that are not numeric ``(R, W, C)`` arrays; the network edge maps it
    to HTTP 400.  Subclasses ``ValueError`` so generic argument
    validation handling applies::

        try:
            window, deadline, tenant = decode_predict_request(payload)
        except BadRequestError as exc:
            status, body = encode_error(exc)   # 400 + typed error JSON
    """


class RateLimitedError(ServiceOverloadedError):
    """A tenant exhausted its token-bucket rate allowance.

    A refinement of :class:`ServiceOverloadedError` (both map to HTTP
    429 and both mean "back off and retry"), distinguishable so clients
    can tell per-tenant throttling from global queue saturation::

        try:
            client.predict(window)
        except RateLimitedError:
            ...  # this tenant is over its budget; others still flow
        except ServiceOverloadedError:
            ...  # the whole admission queue is saturated
    """


class RemoteError(ServingError):
    """Transport or protocol failure talking to a remote forecast server.

    Raised by :class:`~repro.serving.RemoteForecastService` when the
    connection fails, the response is not valid ``repro.rpc/v1`` JSON,
    or the server closed mid-response — the failure is in the pipe, not
    the model.  Server-side failures arrive as their own typed errors
    (:class:`DeadlineExceededError`, :class:`ServiceOverloadedError`,
    ...) decoded from the error payload::

        try:
            counts = remote.predict(window)
        except RemoteError:
            ...  # network trouble: retry another replica
    """


class WorkerCrashedError(ServingError):
    """A service worker thread — or worker *process* — died mid-batch.

    Every request that was in flight on the dead worker is completed
    with this error (the killing exception chained as ``__cause__``);
    both :class:`~repro.serving.ForecastService` (thread workers) and
    :class:`~repro.serving.WorkerPool` (process workers) respawn a
    replacement, so later requests succeed::

        try:
            handle.wait()
        except WorkerCrashedError:
            service.predict(window)  # the respawned worker serves this
    """
