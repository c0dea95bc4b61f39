"""Forecast service: cross-request micro-batching over a worker pool.

Concurrent clients each want one window predicted; the model is fastest
when windows run through ``predict_batch`` together.  The
:class:`ForecastService` bridges the two: requests from any thread land
on a queue, worker threads coalesce whatever is waiting (up to
``max_batch``, holding the batch open at most ``max_delay`` seconds for
stragglers) into stacked batches through the backend's vectorized
no-grad path, and each caller gets its own row of the result.

Throughput comes from *coalescing independent clients* — the
architectural step past PR 3's single-caller batching — and, on
multi-core hardware, from running ``workers=N`` threads that drain the
queue in parallel.  Parallel workers are safe because the whole
``no_grad``/arena/dtype execution state is thread-local (the
:class:`~repro.nn.context.ExecutionContext`) and every worker predicts
under its own per-thread model arena, so concurrent batches never share
mutable state and each request's answer is the one a sequential call
would have produced.

Request lifecycle::

    client thread                worker thread (one of N)
    -------------                ------------------------
    submit(window) ──► queue
    wait on handle      drain up to max_batch (wait ≤ max_delay)
                        np.stack ► backend.predict(batch) ► split rows
    ◄────────────────── set result, wake clients
    handle.result()

The backend is anything mapping a stacked ``(B, R, W, C)`` batch of raw
count windows to ``(B, R, C)`` predictions — a
:class:`~repro.api.Forecaster`, a :class:`~repro.serving.ShardRouter`,
or a :class:`~repro.serving.FallbackChain`.

The service also carries the in-process failure model (see
``docs/serving.md`` "Failure model and degradation ladder"): per-request
**deadlines** (expired requests are shed before compute and completed
with :class:`~repro.serving.DeadlineExceededError`), a **bounded
admission queue** (:class:`~repro.serving.ServiceOverloadedError` once
``max_queue`` requests are waiting — the backpressure primitive a
network edge surfaces as HTTP 429), **graceful degradation** through a
:class:`~repro.serving.FallbackChain` (responses answered by a fallback
tier carry ``degraded=True`` on their handle), and **worker-death
recovery** (a worker thread that dies mid-batch fails its in-flight
requests with :class:`~repro.serving.WorkerCrashedError` and is
respawned).  Every failure path is injectable through ``fault_hook``
(see :mod:`repro.serving.faultinject`).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import (
    CircuitOpenError,
    DeadlineExceededError,
    ServiceOverloadedError,
    ServiceStoppedError,
    WorkerCrashedError,
)
from .resilience import Deadline, FallbackChain

__all__ = ["ForecastService", "ServiceStats"]

#: Client-side backstop past a request's deadline: how long ``wait`` keeps
#: blocking after expiry for the worker-side shed (or a late result) to
#: land before it gives up with DeadlineExceededError.  Generous because
#: the worker may legitimately still be computing the batch ahead.
_DEADLINE_WAIT_GRACE = 30.0


def _percentile(ordered: list[float], q: int) -> float:
    """Nearest-rank ``q``-th percentile of the ascending ``ordered``.

    The rank is ``ceil(q * n / 100)`` (at least 1), computed in integers
    so float rounding cannot move it; an empty list reads 0.0.
    """
    if not ordered:
        return 0.0
    return ordered[max(1, -(-q * len(ordered) // 100)) - 1]


def _rewrap(error: BaseException) -> BaseException:
    """A fresh exception of ``error``'s type, chained to the original.

    Every waiter raising the *same* stored exception instance would
    concurrently mutate its ``__traceback__`` (and stack unrelated
    client frames onto one another), so each ``wait`` raises its own
    clone with the original attached as ``__cause__``.  Exception types
    whose constructor does not round-trip ``args`` fall back to the
    original instance.
    """
    if isinstance(error, OSError):
        # errno/filename are C-level state that args does not round-trip;
        # a clone would silently lose them.  Hand back the original.
        return error
    try:
        clone = type(error)(*error.args)
    except Exception:  # noqa: BLE001 - exotic constructor signature
        return error
    if type(clone) is not type(error) or clone.args != error.args:
        # A constructor that transforms its arguments (e.g. wraps them in
        # a formatted message) would re-apply the transformation to the
        # already-transformed args; only clones that round-trip exactly
        # are safe to substitute.
        return error
    # Carry over state that lives outside args (OSError.filename, custom
    # attributes set after construction) so the clone is inspectable
    # without digging through __cause__.
    try:
        clone.__dict__.update(error.__dict__)
    except Exception:  # noqa: BLE001 - exotic __dict__/slots
        pass
    clone.__cause__ = error
    return clone


class _PendingRequest:
    """One submitted window: a tiny future a worker completes."""

    __slots__ = (
        "window",
        "result",
        "error",
        "enqueued_at",
        "done_at",
        "abandoned",
        "deadline",
        "degraded",
        "tier",
        "_event",
    )

    def __init__(self, window: np.ndarray, deadline: Deadline | None = None):
        self.window = window
        self.result: np.ndarray | None = None
        self.error: BaseException | None = None
        self.enqueued_at = time.perf_counter()
        self.done_at: float | None = None
        #: Set when a waiter timed out: the late completion still fulfils
        #: the handle but is excluded from the service latency stats.
        self.abandoned = False
        #: Absolute time budget; workers shed the request once expired.
        self.deadline = deadline
        #: True when a fallback tier (not the primary) produced the result.
        self.degraded = False
        #: Index of the FallbackChain tier that answered (0 = primary).
        self.tier = 0
        self._event = threading.Event()

    def done(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: float | None = None) -> np.ndarray:
        if timeout is None and self.deadline is not None:
            # Deadlined requests never block forever: the worker sheds
            # them at drain time, and this backstop covers a worker stuck
            # in the batch ahead.
            timeout = self.deadline.remaining() + _DEADLINE_WAIT_GRACE
        if not self._event.wait(timeout):
            self.abandoned = True
            if self.deadline is not None and self.deadline.expired():
                raise DeadlineExceededError(
                    "request deadline expired before a worker completed it"
                )
            # Builtin TimeoutError is the documented contract for
            # un-deadlined waits (tests and callers branch on it); the
            # typed DeadlineExceededError covers the deadlined path above.
            raise TimeoutError("prediction did not complete in time")  # repro: ignore[typed-serving-errors] -- documented builtin contract for un-deadlined wait(); deadlined path raises DeadlineExceededError
        if self.error is not None:
            raise _rewrap(self.error)
        return self.result

    def _complete(self, result: np.ndarray | None, error: BaseException | None) -> None:
        self.result = result
        self.error = error
        self.done_at = time.perf_counter()
        self._event.set()


@dataclass(frozen=True)
class ServiceStats:
    """Snapshot of a service's behaviour since start (or reset).

    ``mean_batch`` is the coalescing health metric: at concurrency ``k``
    it should approach ``min(k, max_batch)``; 1.0 means every request ran
    alone and the service added queueing for nothing.  Latencies are
    enqueue-to-completion seconds.  The resilience counters tally the
    failure model: ``shed`` (deadline-expired, dropped before compute),
    ``rejected`` (admission-queue overflow), ``degraded`` (answered by a
    fallback tier), ``retried`` (re-predicted singly after a failed
    batch), ``broken`` (failed fast on an open circuit breaker),
    ``failed`` (completed with an error), ``worker_deaths`` (worker
    threads that died mid-batch and were replaced).  Example::

        stats = service.stats()
        print(f"{stats.requests_per_sec:.0f} req/s, batch {stats.mean_batch:.1f}")
        print(f"shed={stats.shed} degraded={stats.degraded}")
    """

    requests: int
    batches: int
    mean_batch: float
    requests_per_sec: float
    latency_mean: float
    latency_p50: float
    latency_p95: float
    shed: int = 0
    rejected: int = 0
    degraded: int = 0
    retried: int = 0
    broken: int = 0
    failed: int = 0
    worker_deaths: int = 0

    def to_dict(self) -> dict:
        """JSON-safe payload (served on ``/statz`` and printed by the CLI)."""
        return {
            "requests": self.requests,
            "batches": self.batches,
            "mean_batch": round(self.mean_batch, 3),
            "requests_per_sec": round(self.requests_per_sec, 2),
            "latency_mean_ms": round(self.latency_mean * 1e3, 3),
            "latency_p50_ms": round(self.latency_p50 * 1e3, 3),
            "latency_p95_ms": round(self.latency_p95 * 1e3, 3),
            "shed": self.shed,
            "rejected": self.rejected,
            "degraded": self.degraded,
            "retried": self.retried,
            "broken": self.broken,
            "failed": self.failed,
            "worker_deaths": self.worker_deaths,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ServiceStats":
        """Rebuild a snapshot from :meth:`to_dict` output (inverse, modulo
        the rounding ``to_dict`` applies).

        Used by :class:`~repro.serving.RemoteForecastService` to turn a
        ``GET /statz`` payload back into the same type a local
        ``service.stats()`` call returns.  Extra keys (the network edge
        merges its own counters in) are ignored; missing counters
        default to zero::

            stats = ServiceStats.from_dict(json.loads(body)["stats"])
        """
        return cls(
            requests=int(payload.get("requests", 0)),
            batches=int(payload.get("batches", 0)),
            mean_batch=float(payload.get("mean_batch", 0.0)),
            requests_per_sec=float(payload.get("requests_per_sec", 0.0)),
            latency_mean=float(payload.get("latency_mean_ms", 0.0)) / 1e3,
            latency_p50=float(payload.get("latency_p50_ms", 0.0)) / 1e3,
            latency_p95=float(payload.get("latency_p95_ms", 0.0)) / 1e3,
            shed=int(payload.get("shed", 0)),
            rejected=int(payload.get("rejected", 0)),
            degraded=int(payload.get("degraded", 0)),
            retried=int(payload.get("retried", 0)),
            broken=int(payload.get("broken", 0)),
            failed=int(payload.get("failed", 0)),
            worker_deaths=int(payload.get("worker_deaths", 0)),
        )


class ForecastService:
    """Thread-safe forecast frontend that micro-batches across requests.

    Usage::

        fc = pool.get("model.npz")
        with ForecastService(fc, max_batch=8, workers=2) as service:
            counts = service.predict(window)            # blocking call
            handles = [service.submit(w) for w in ws]   # pipelined client
            results = [h.wait() for h in handles]
        print(service.stats().to_dict())

    ``max_batch`` bounds the coalesced batch (small batches are the
    single-core sweet spot — see ROADMAP Performance); ``max_delay`` is
    how long a worker holds an under-full batch open for stragglers.
    The default 2 ms is far below model latency, so it costs essentially
    no added latency while letting a burst of concurrent clients land in
    one batch.  ``workers`` sizes the worker-thread pool draining the
    shared queue: 1 (the default) serialises all inference on one
    thread; N > 1 runs up to N batches in parallel, each worker
    predicting under its own thread-local execution context and
    per-thread model arena, so results stay identical to the sequential
    answers — on multi-core hardware this is the serving throughput
    lever.

    Resilience knobs (all optional; see ``docs/serving.md``):

    * ``deadline`` — default per-request time budget in seconds
      (overridable per ``submit``).  Expired requests are shed *before*
      compute with :class:`~repro.serving.DeadlineExceededError`.
    * ``max_queue`` — admission-queue bound; ``submit`` raises
      :class:`~repro.serving.ServiceOverloadedError` once that many
      requests are waiting (load shedding / backpressure).
    * ``fallback`` — one backend or a list of backends forming the
      degradation ladder behind the primary; requests answered by a
      fallback tier complete normally with ``handle.degraded = True``.
      Passing a ready-made :class:`~repro.serving.FallbackChain` as
      ``backend`` works too.  ``breaker_failures``/``breaker_reset``
      configure the per-tier circuit breakers.
    * ``fault_hook`` — chaos hook (:class:`~repro.serving.FaultPlan`),
      fired at sites ``"service.predict"`` and ``"service.worker"``.
    """

    def __init__(
        self,
        backend,
        *,
        max_batch: int = 8,
        max_delay: float = 0.002,
        workers: int = 1,
        deadline: float | None = None,
        max_queue: int | None = None,
        fallback=None,
        breaker_failures: int = 5,
        breaker_reset: float = 30.0,
        fault_hook=None,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {max_delay}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if deadline is not None and deadline <= 0:
            raise ValueError(f"deadline must be > 0 seconds, got {deadline}")
        if max_queue is not None and max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self.backend = backend
        self.max_batch = max_batch
        self.max_delay = max_delay
        self.workers = workers
        self.deadline = deadline
        self.max_queue = max_queue
        self._fault_hook = fault_hook
        # The degradation ladder: an explicit FallbackChain backend is
        # used as-is; a `fallback` backend (or list of them) is chained
        # behind the primary with per-tier circuit breakers.
        if isinstance(backend, FallbackChain):
            self._chain: FallbackChain | None = backend
        elif fallback is not None:
            tiers = list(fallback) if isinstance(fallback, (list, tuple)) else [fallback]
            self._chain = FallbackChain(
                [backend, *tiers],
                failure_threshold=breaker_failures,
                reset_timeout=breaker_reset,
            )
        else:
            self._chain = None
        self._pending: deque[_PendingRequest] = deque()
        self._cond = threading.Condition()
        self._alive = False
        self._last_batch = 0
        self._generation = 0
        self._respawns = 0
        self._threads: list[threading.Thread] = []
        self._requests = 0
        self._batches = 0
        self._coalesced = 0
        self._shed = 0
        self._rejected = 0
        self._degraded = 0
        self._retried = 0
        self._broken = 0
        self._failed = 0
        self._worker_deaths = 0
        self._latencies: deque[float] = deque(maxlen=4096)
        self._started_at: float | None = None

    def _fault(self, site: str, **info) -> None:
        # Chaos hook point; a no-op unless a fault_hook was wired in.
        if self._fault_hook is not None:
            self._fault_hook(site, **info)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ForecastService":
        """Start the worker thread pool (idempotent); returns ``self``."""
        with self._cond:
            if self._alive:
                return self
            self._alive = True
            self._started_at = time.perf_counter()
            # Workers capture the generation they were started under; a
            # worker from a previous generation that outlived its stop()
            # timeout (stuck in a slow backend call) retires itself on its
            # next drain instead of rejoining the new pool.
            self._generation += 1
            generation = self._generation
            fresh = [
                threading.Thread(
                    target=self._run,
                    args=(generation,),
                    name=f"forecast-service-{index}",
                    daemon=True,
                )
                for index in range(self.workers)
            ]
            # Keep any orphaned previous-generation threads tracked so a
            # later stop() still joins them once they come unstuck.
            self._threads = [t for t in self._threads if t.is_alive()] + fresh
            for thread in fresh:
                thread.start()
        return self

    def stop(self, timeout: float | None = 5.0) -> None:
        """Drain outstanding requests, then stop the workers.

        Requests submitted after ``stop`` raise ``RuntimeError``; requests
        already queued complete normally before the workers exit.
        ``timeout`` bounds the whole shutdown, not each join — the
        deadline is shared across the worker pool.
        """
        with self._cond:
            if not self._alive:
                return
            self._alive = False
            self._cond.notify_all()
        deadline = None if timeout is None else time.monotonic() + timeout
        for thread in self._threads:
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            thread.join(remaining)
        # A thread that outlived the timeout (stuck in the backend) stays
        # tracked: its generation is stale so it exits on its next drain,
        # and the next stop()/start() accounts for it.
        with self._cond:
            self._threads = [t for t in self._threads if t.is_alive()]

    def __enter__(self) -> "ForecastService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        """Whether the worker pool is accepting requests."""
        return self._alive

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    def submit(
        self, window: np.ndarray, *, deadline: float | None = None
    ) -> _PendingRequest:
        """Enqueue one raw-count window ``(R, W, C)``; returns a handle.

        The handle's ``wait(timeout=None)`` blocks until the worker
        completes the batch containing this request and returns the
        ``(R, C)`` expected counts (re-raising any backend error); after
        completion ``handle.degraded`` tells whether a fallback tier
        (rather than the primary model) produced the answer.
        Submitting from many threads is safe and is the point: concurrent
        submissions coalesce into shared batches.

        ``deadline`` is this request's time budget in seconds (default:
        the service-wide ``deadline``).  A request still queued when its
        deadline expires is shed before compute and fails with
        :class:`~repro.serving.DeadlineExceededError`.  When the
        admission queue is full (``max_queue``) the request is rejected
        immediately with :class:`~repro.serving.ServiceOverloadedError`.
        """
        window = np.asarray(window, dtype=float)
        if window.ndim != 3:
            raise ValueError(f"expected a (R, W, C) window, got shape {window.shape}")
        budget = deadline if deadline is not None else self.deadline
        request = _PendingRequest(
            window, Deadline.after(budget) if budget is not None else None
        )
        with self._cond:
            if not self._alive:
                raise ServiceStoppedError(
                    "service is not running; call start() first"
                )
            if self.max_queue is not None and len(self._pending) >= self.max_queue:
                self._rejected += 1
                raise ServiceOverloadedError(
                    f"admission queue is full ({self.max_queue} requests waiting); "
                    "back off and retry"
                )
            self._pending.append(request)
            self._cond.notify_all()
        return request

    def predict(
        self,
        window: np.ndarray,
        timeout: float | None = None,
        *,
        deadline: float | None = None,
    ) -> np.ndarray:
        """Blocking convenience wrapper: ``submit(window).wait(timeout)``."""
        return self.submit(window, deadline=deadline).wait(timeout)

    def predict_many(
        self,
        windows,
        timeout: float | None = None,
        *,
        deadline: float | None = None,
    ) -> list[np.ndarray]:
        """Submit a client-side burst, then gather in order.

        All windows are enqueued before the first wait, so one client can
        fill whole micro-batches by itself::

            results = service.predict_many(stream_of_windows)

        ``deadline`` applies per request (each window gets its own fresh
        budget at submit time).
        """
        handles = [self.submit(w, deadline=deadline) for w in windows]
        return [h.wait(timeout) for h in handles]

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def stats(self) -> ServiceStats:
        """Throughput/coalescing/latency snapshot since :meth:`start`."""
        with self._cond:
            latencies = sorted(self._latencies)
            requests, batches = self._requests, self._batches
            coalesced = self._coalesced
            resilience = (
                self._shed,
                self._rejected,
                self._degraded,
                self._retried,
                self._broken,
                self._failed,
                self._worker_deaths,
            )
            elapsed = (
                time.perf_counter() - self._started_at if self._started_at else 0.0
            )

        shed, rejected, degraded, retried, broken, failed, worker_deaths = resilience
        return ServiceStats(
            requests=requests,
            batches=batches,
            mean_batch=coalesced / batches if batches else 0.0,
            requests_per_sec=requests / elapsed if elapsed > 0 else 0.0,
            latency_mean=sum(latencies) / len(latencies) if latencies else 0.0,
            latency_p50=_percentile(latencies, 50),
            latency_p95=_percentile(latencies, 95),
            shed=shed,
            rejected=rejected,
            degraded=degraded,
            retried=retried,
            broken=broken,
            failed=failed,
            worker_deaths=worker_deaths,
        )

    def reset_stats(self) -> None:
        """Zero the counters (benchmarks call this after warm-up)."""
        with self._cond:
            self._requests = 0
            self._batches = 0
            self._coalesced = 0
            self._shed = 0
            self._rejected = 0
            self._degraded = 0
            self._retried = 0
            self._broken = 0
            self._failed = 0
            self._worker_deaths = 0
            self._latencies.clear()
            self._started_at = time.perf_counter()

    # ------------------------------------------------------------------
    # Worker
    # ------------------------------------------------------------------
    def _drain_batch(self, generation: int) -> list[_PendingRequest]:
        """Pop the next micro-batch, holding it open briefly for stragglers.

        The hold-open only engages when there is evidence of concurrency
        — more than one request already queued, or the previous batch
        coalesced — so a single sequential client never pays the
        ``max_delay`` on every request.

        Returns an empty list *only* at shutdown: the hold-open wait
        releases the lock, so with ``workers > 1`` a sibling worker may
        drain the queue underneath it — finding the deque empty again
        must loop back to waiting, not hand an empty batch to ``_run``
        (which would retire the worker thread while the service is
        alive).
        """
        with self._cond:
            while True:
                if self._generation != generation:
                    return []  # superseded by a newer start(): its pool owns the queue
                while not self._pending:
                    if not self._alive or self._generation != generation:
                        return []
                    self._cond.wait()
                if self.max_delay > 0.0 and (len(self._pending) > 1 or self._last_batch > 1):
                    deadline = time.monotonic() + self.max_delay
                    while (
                        len(self._pending) < self.max_batch
                        and self._alive
                        and self._generation == generation
                    ):
                        remaining = deadline - time.monotonic()
                        if remaining <= 0 or not self._cond.wait(remaining):
                            break
                if self._generation != generation:
                    return []
                count = min(len(self._pending), self.max_batch)
                if count == 0:
                    continue  # a sibling worker drained the queue mid-hold-open
                self._last_batch = count
                return [self._pending.popleft() for _ in range(count)]

    def _run(self, generation: int) -> None:
        while True:
            batch = self._drain_batch(generation)
            if not batch:
                return  # stopped (or superseded by a newer start) and drained
            try:
                self._process(batch)
            except BaseException as exc:  # noqa: BLE001 - worker died mid-batch
                # Anything escaping _process is a worker crash (request
                # failures are isolated inside, but only Exceptions: a
                # backend's KeyboardInterrupt or SystemExit lands here):
                # fail the in-flight batch with a typed error so no waiter
                # hangs, then respawn a replacement worker and let this
                # thread die.
                crash = WorkerCrashedError(
                    f"serving worker {threading.current_thread().name!r} died "
                    f"mid-batch: {exc!r}"
                )
                crash.__cause__ = exc
                with self._cond:
                    self._worker_deaths += 1
                    self._failed += sum(1 for r in batch if not r.done())
                for request in batch:
                    if not request.done():
                        request._complete(None, crash)
                self._spawn_replacement(generation)
                return

    def _spawn_replacement(self, generation: int) -> None:
        """Replace a crashed worker so the pool keeps its size.

        Only spawns while the service is alive and the dead worker's
        generation is current — a crash during shutdown (or on a
        superseded worker) must not resurrect the pool.
        """
        with self._cond:
            if not self._alive or self._generation != generation:
                return
            self._respawns += 1
            thread = threading.Thread(
                target=self._run,
                args=(generation,),
                name=f"forecast-service-respawn-{self._respawns}",
                daemon=True,
            )
            self._threads = [t for t in self._threads if t.is_alive()] + [thread]
            thread.start()

    def _backend_predict(self, stacked: np.ndarray) -> tuple[np.ndarray, int]:
        """One backend call: ``(predictions, serving_tier)``.

        Tier 0 is the primary; > 0 means a fallback tier answered and the
        requests should be flagged degraded.  The ``service.predict``
        fault site lives here so injected raises/delays hit both the
        batched call and the per-request isolation retries.
        """
        self._fault("service.predict", batch=len(stacked))
        if self._chain is not None:
            return self._chain.predict_tiered(stacked)
        return self.backend.predict(stacked), 0

    def _process(self, batch: list[_PendingRequest]) -> None:
        """Shed expired requests, predict the rest, complete every handle."""
        # Worker-death injection site: outside all per-request isolation,
        # so a raise here kills the worker thread (simulating a crash).
        self._fault("service.worker", batch=len(batch))
        live: list[_PendingRequest] = []
        shed: list[_PendingRequest] = []
        for request in batch:
            # Shed *before* compute: an expired request never reaches the
            # backend, so overload cannot snowball into more overload.
            if request.deadline is not None and request.deadline.expired():
                shed.append(request)
            else:
                live.append(request)
        outcomes: list[tuple[np.ndarray | None, BaseException | None, int]] = []
        retried = 0
        if live:
            try:
                stacked = np.stack([request.window for request in live])
                predictions, tier = self._backend_predict(stacked)
                outcomes = [(row, None, tier) for row in predictions]
            except Exception:  # noqa: BLE001 - fall back to isolation
                # Heterogeneous shapes or a data-dependent failure: retry
                # singly so one bad request cannot poison its neighbours.
                retried = len(live)
                for request in live:
                    try:
                        rows, tier = self._backend_predict(request.window[None])
                        outcomes.append((rows[0], None, tier))
                    except Exception as exc:  # noqa: BLE001 - to caller
                        outcomes.append((None, exc, 0))
        now = time.perf_counter()
        with self._cond:
            self._requests += len(batch)
            self._batches += 1
            self._coalesced += len(batch)
            self._shed += len(shed)
            self._retried += retried
            for request, (result, error, tier) in zip(live, outcomes):
                if error is not None:
                    self._failed += 1
                    if isinstance(error, CircuitOpenError):
                        self._broken += 1
                elif tier > 0:
                    self._degraded += 1
                # A request whose waiter already timed out completes
                # arbitrarily late; recording it would skew the
                # latency percentiles towards the timeout path.  Shed
                # requests never ran, so they are excluded too.
                if not request.abandoned:
                    self._latencies.append(now - request.enqueued_at)
        for request in shed:
            request._complete(
                None,
                DeadlineExceededError(
                    "deadline expired while queued; request shed before compute"
                ),
            )
        for request, (result, error, tier) in zip(live, outcomes):
            request.tier = tier
            request.degraded = tier > 0
            request._complete(result, error)
