"""The client SDK: a :class:`ForecastBackend` that lives across an HTTP hop.

:class:`RemoteForecastService` satisfies the same duck type as the
in-process :class:`~repro.serving.ForecastService` — ``submit`` /
``predict`` / ``predict_many`` / ``stats`` / ``stop`` — but every call
becomes a ``repro.rpc/v1`` request against a
:class:`~repro.serving.NetworkServer`.  Code written against the
:class:`~repro.serving.ForecastBackend` protocol (the CLI ``serve``
demo, the examples) runs unchanged against either.

Three properties make the hop honest:

* **bitwise fidelity** — predictions ride the wire as ``repr(float)``
  JSON, which round-trips IEEE doubles exactly, so a remote result is
  bitwise-equal to the local one (the E2E suite locks this);
* **typed failures** — a server-side
  :class:`~repro.serving.DeadlineExceededError` (or any taxonomy error)
  re-raises client-side as the *same type*, decoded from the error
  payload; only genuine transport/protocol trouble raises
  :class:`~repro.serving.RemoteError`;
* **deadline propagation** — ``deadline=0.5`` both rides the wire (so
  the server's shed-before-compute path sees it) and bounds the local
  socket wait, so client and server agree on the budget.
"""

from __future__ import annotations

import http.client
import json
import threading
import urllib.parse
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import rpc
from .errors import BadRequestError, RemoteError, ServingError
from .service import ServiceStats

__all__ = ["RemoteForecastService"]

#: Socket-level slack past a request's deadline before the client gives
#: up on the server answering (its own 504 should arrive first).
_SOCKET_GRACE = 5.0


class _RemoteHandle:
    """The waitable ``submit`` returns: a future over one HTTP request.

    Mirrors the local service handle surface — ``wait(timeout)``,
    ``done()``, and ``degraded``/``tier`` after completion::

        handle = remote.submit(window, deadline=1.0)
        counts = handle.wait()
        if handle.degraded:
            print("answered by fallback tier", handle.tier)
    """

    __slots__ = ("_future", "_outcome")

    def __init__(self, future):
        self._future = future
        self._outcome = None  # (prediction, degraded, tier) once resolved

    def done(self) -> bool:
        """Whether the request has completed (successfully or not)."""
        return self._future.done()

    def wait(self, timeout: float | None = None) -> np.ndarray:
        """Block for the ``(R, C)`` prediction; re-raises typed errors.

        ``timeout`` bounds only this wait — the request itself is bounded
        by its deadline (or the client's default timeout) regardless.
        """
        try:
            outcome = self._future.result(timeout)
        except TimeoutError:
            raise
        self._outcome = outcome
        return outcome[0]

    @property
    def degraded(self) -> bool:
        """Whether a fallback tier (not the primary model) answered."""
        return self._outcome[1] if self._outcome is not None else False

    @property
    def tier(self) -> int:
        """Which fallback tier answered (0 = primary)."""
        return self._outcome[2] if self._outcome is not None else 0


class RemoteForecastService:
    """Talk to a :class:`~repro.serving.NetworkServer` like a local service.

    Drop-in :class:`~repro.serving.ForecastBackend` over HTTP: point it
    at a server's base URL and call the same five methods the local
    :class:`~repro.serving.ForecastService` offers::

        remote = RemoteForecastService("http://127.0.0.1:8473", tenant="team-a")
        counts = remote.predict(window, deadline=2.0)       # (R, C) ndarray
        many = remote.predict_many([w1, w2, w3])            # one batch POST
        print(remote.stats().requests)                      # server-side stats
        remote.stop()                                       # close connections

    ``tenant`` names the rate-limiting principal each request carries.
    ``timeout`` is the default socket budget for un-deadlined requests;
    a per-request ``deadline`` overrides it (deadline + grace).  The
    client keeps up to ``max_connections`` keep-alive connections and as
    many submit threads, so ``submit`` bursts pipeline across them.

    ``stop`` closes this client's connections and threads only — the
    server is a shared resource other clients may be using, so it is
    deliberately not stopped from here.
    """

    def __init__(
        self,
        url: str,
        *,
        tenant: str = "",
        timeout: float = 60.0,
        max_connections: int = 4,
    ):
        parsed = urllib.parse.urlsplit(url if "//" in url else f"http://{url}")
        if parsed.scheme != "http" or not parsed.hostname:
            raise ValueError(
                f"url must be http://host:port, got {url!r} "
                "(the repro.rpc/v1 edge speaks plain HTTP)"
            )
        if timeout <= 0:
            raise ValueError(f"timeout must be > 0 seconds, got {timeout}")
        if max_connections < 1:
            raise ValueError(f"max_connections must be >= 1, got {max_connections}")
        self.url = f"http://{parsed.hostname}:{parsed.port or 80}"
        self.host = parsed.hostname
        self.port = parsed.port or 80
        self.tenant = tenant
        self.timeout = float(timeout)
        self._lock = threading.Lock()
        self._conns: list[http.client.HTTPConnection] = []
        self._closed = False
        self._executor = ThreadPoolExecutor(
            max_workers=max_connections, thread_name_prefix="remote-forecast"
        )

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _checkout(self) -> http.client.HTTPConnection:
        with self._lock:
            if self._closed:
                raise RemoteError(f"client for {self.url} is stopped")
            if self._conns:
                return self._conns.pop()
        return http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)

    def _checkin(self, conn: http.client.HTTPConnection) -> None:
        with self._lock:
            if not self._closed and len(self._conns) < 8:
                self._conns.append(conn)
                return
        conn.close()

    def _request(
        self, method: str, path: str, payload: dict | None, timeout: float
    ) -> dict:
        """One HTTP exchange → decoded JSON body (raises typed errors).

        Non-200 statuses decode through :func:`rpc.decode_error` and
        raise as the server's original exception type; transport and
        protocol failures raise :class:`RemoteError`.
        """
        body = json.dumps(payload).encode("utf-8") if payload is not None else None
        conn = self._checkout()
        try:
            if conn.sock is not None:
                conn.sock.settimeout(timeout)
            else:
                conn.timeout = timeout
            conn.request(
                method,
                path,
                body=body,
                headers={"Content-Type": "application/json"} if body else {},
            )
            response = conn.getresponse()
            status = response.status
            data = response.read()
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            raise RemoteError(f"{method} {self.url}{path} failed: {exc!r}") from exc
        self._checkin(conn)
        try:
            decoded = rpc.loads(data)
        except BadRequestError as exc:
            raise RemoteError(
                f"{method} {path} returned a malformed body (status {status}): {exc}"
            ) from exc
        if status != 200:
            try:
                error = rpc.decode_error(decoded)
            except BadRequestError as exc:
                raise RemoteError(
                    f"{method} {path} failed with status {status} and an "
                    f"off-schema error body"
                ) from exc
            raise error
        return decoded

    def _budget(self, deadline: float | None) -> float:
        return deadline + _SOCKET_GRACE if deadline is not None else self.timeout

    # ------------------------------------------------------------------
    # ForecastBackend surface
    # ------------------------------------------------------------------
    def _predict_once(
        self, window: np.ndarray, deadline: float | None
    ) -> tuple[np.ndarray, bool, int]:
        payload = rpc.encode_predict_request(
            window, deadline=deadline, tenant=self.tenant
        )
        decoded = self._request(
            "POST", "/v1/predict", payload, self._budget(deadline)
        )
        try:
            return rpc.decode_predict_response(decoded)
        except BadRequestError as exc:
            raise RemoteError(
                f"server response violated {rpc.RPC_SCHEMA}: {exc}"
            ) from exc

    def submit(self, window: np.ndarray, *, deadline: float | None = None):
        """Enqueue one ``(R, W, C)`` window; returns a waitable handle.

        The HTTP request runs on a client thread, so a burst of submits
        pipelines across the connection pool::

            handles = [remote.submit(w) for w in windows]
            results = [h.wait() for h in handles]
        """
        window = np.asarray(window, dtype=float)
        if window.ndim != 3:
            raise ValueError(
                f"window must be (regions, window, categories), got shape {window.shape}"
            )
        with self._lock:
            if self._closed:
                raise RemoteError(f"client for {self.url} is stopped")
            future = self._executor.submit(self._predict_once, window, deadline)
        return _RemoteHandle(future)

    def predict(
        self,
        window: np.ndarray,
        timeout: float | None = None,
        *,
        deadline: float | None = None,
    ) -> np.ndarray:
        """Blocking single-window predict over one HTTP round trip.

        Server-side failures re-raise as their original typed
        :class:`~repro.serving.ServingError` subclasses; ``timeout``
        additionally bounds the local wait::

            counts = remote.predict(window, deadline=0.5)
        """
        return self.submit(window, deadline=deadline).wait(timeout)

    def predict_many(
        self,
        windows,
        timeout: float | None = None,
        *,
        deadline: float | None = None,
    ) -> list[np.ndarray]:
        """Predict a burst in one ``/v1/predict_batch`` round trip.

        The server submits the whole burst before waiting, so it
        coalesces into shared batches exactly like a local
        ``predict_many``; results come back in submission order::

            results = remote.predict_many([w1, w2, w3], deadline=5.0)
        """
        windows = [np.asarray(w, dtype=float) for w in windows]
        if not windows:
            return []
        payload = rpc.encode_batch_request(
            windows, deadline=deadline, tenant=self.tenant
        )
        budget = self._budget(deadline)
        if timeout is not None:
            budget = min(budget, timeout)
        decoded = self._request("POST", "/v1/predict_batch", payload, budget)
        try:
            predictions, _degraded, _tier = rpc.decode_batch_response(decoded)
        except BadRequestError as exc:
            raise RemoteError(
                f"server response violated {rpc.RPC_SCHEMA}: {exc}"
            ) from exc
        return predictions

    def health(self) -> dict:
        """The server's ``GET /healthz`` document (status, running, model)."""
        return self._request("GET", "/healthz", None, self.timeout)

    def stats(self) -> ServiceStats:
        """The *server-side* stats snapshot, as a local ``ServiceStats``.

        Fetched from ``GET /statz`` and rebuilt through
        :meth:`~repro.serving.ServiceStats.from_dict`; edge-only counters
        ride along in :meth:`stats_raw` for callers that want them.
        """
        return ServiceStats.from_dict(self.stats_raw())

    def stats_raw(self) -> dict:
        """The full ``GET /statz`` stats mapping, edge counters included."""
        decoded = self._request("GET", "/statz", None, self.timeout)
        stats = decoded.get("stats")
        if not isinstance(stats, dict):
            raise RemoteError("statz response is missing the 'stats' object")
        return stats

    @property
    def running(self) -> bool:
        """Whether the remote server answers health checks affirmatively."""
        try:
            return bool(self.health().get("running", False))
        except ServingError:
            return False

    def stop(self, timeout: float | None = 5.0) -> None:
        """Close this client's connections and submit threads (idempotent).

        The server is left running — it is a shared resource this client
        does not own.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            conns, self._conns = self._conns, []
        self._executor.shutdown(wait=True, cancel_futures=True)
        for conn in conns:
            conn.close()

    def __enter__(self) -> "RemoteForecastService":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
