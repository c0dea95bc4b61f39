"""Resilience primitives for the serving stack.

Four small, composable pieces give ``repro.serving`` a failure model —
the slow calls, dead workers and bad payloads of the HTTP edge and the
process workers all reduce to behaviours defined here:

* :class:`Deadline` — an absolute per-request time budget.  Workers shed
  expired requests *before* compute; clients never block meaningfully
  past their budget.
* :class:`RetryPolicy` — capped exponential backoff with deterministic
  (seeded) jitter for transient failures, such as artifact loads in
  :class:`~repro.serving.ModelPool`.
* :class:`CircuitBreaker` — closed → open after N consecutive failures →
  a single half-open probe after a cooldown.  Guards models and fallback
  tiers so a broken dependency fails fast instead of eating a timeout
  per request.
* :class:`FallbackChain` — ordered degradation: when the primary model's
  breaker is open or its predict raises, a cheaper always-available tier
  (e.g. the registered ``HA`` baseline, see :func:`build_fallback_tier`)
  answers instead, and the response is flagged ``degraded``.

All four are thread-safe where they hold state and deterministic where
they randomise, so the chaos suite (``tests/serving/test_faults.py``)
can lock exact behaviours.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass

from .errors import CircuitOpenError

__all__ = [
    "Deadline",
    "RetryPolicy",
    "CircuitBreaker",
    "FallbackChain",
    "build_fallback_tier",
]


@dataclass(frozen=True)
class Deadline:
    """An absolute point in monotonic time a request must finish by.

    Deadlines are created from a relative budget and carried with the
    request, so every layer (queue, worker, fallback) checks the same
    absolute instant — budgets never reset as a request moves between
    components.  Example::

        deadline = Deadline.after(0.250)        # 250 ms from now
        if deadline.expired():
            ...                                  # shed before compute
        handle.wait(timeout=deadline.remaining())
    """

    at: float  #: absolute ``time.monotonic()`` instant

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        """The deadline ``seconds`` from now (must be > 0)."""
        if seconds <= 0:
            raise ValueError(f"deadline must be > 0 seconds, got {seconds}")
        return cls(at=time.monotonic() + seconds)

    def remaining(self) -> float:
        """Seconds left until expiry, floored at 0.0."""
        return max(0.0, self.at - time.monotonic())

    def expired(self) -> bool:
        """Whether the deadline has passed."""
        return time.monotonic() >= self.at


class RetryPolicy:
    """Capped exponential backoff with deterministic jitter.

    ``call(fn)`` invokes ``fn`` up to ``max_attempts`` times, sleeping
    ``min(base_delay * multiplier**k, max_delay) * (1 + jitter * u)``
    between attempts, where ``u`` is drawn from a ``random.Random(seed)``
    created fresh per ``call`` — so every request sees the *same* jitter
    sequence and chaos tests are exactly reproducible.  Only exceptions
    in ``retryable`` are retried; the final failure is re-raised
    unchanged.  Example::

        policy = RetryPolicy(max_attempts=3, base_delay=0.01, seed=7)
        forecaster = policy.call(lambda: Forecaster.load(path))

    A policy is stateless between calls (the per-call RNG is local), so
    one instance may be shared across threads and components.
    """

    def __init__(
        self,
        max_attempts: int = 3,
        *,
        base_delay: float = 0.05,
        max_delay: float = 2.0,
        multiplier: float = 2.0,
        jitter: float = 0.1,
        seed: int = 0,
        retryable: tuple[type[BaseException], ...] = (Exception,),
        sleep=time.sleep,
    ):
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if base_delay < 0 or max_delay < 0 or jitter < 0:
            raise ValueError("delays and jitter must be >= 0")
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.multiplier = multiplier
        self.jitter = jitter
        self.seed = seed
        self.retryable = retryable
        self._sleep = sleep
        self._lock = threading.Lock()
        self._retries = 0  # attempts beyond the first, across all calls

    @property
    def retries(self) -> int:
        """Total retry attempts (sleeps taken) across every ``call``."""
        with self._lock:
            return self._retries

    def delay(self, attempt: int, rng: random.Random | None = None) -> float:
        """The backoff before retry ``attempt`` (0-based), jitter applied."""
        base = min(self.base_delay * self.multiplier**attempt, self.max_delay)
        if rng is not None and self.jitter > 0:
            base *= 1.0 + self.jitter * rng.random()
        return base

    def call(self, fn, *, on_retry=None):
        """Run ``fn()`` under the policy; returns its result.

        ``on_retry(attempt, error, delay)`` is invoked before each sleep
        (attempt is 1-based), letting callers count or log retries.
        """
        rng = random.Random(self.seed)
        for attempt in range(self.max_attempts):
            try:
                return fn()
            except self.retryable as exc:
                if attempt == self.max_attempts - 1:
                    raise
                pause = self.delay(attempt, rng)
                with self._lock:
                    self._retries += 1
                if on_retry is not None:
                    on_retry(attempt + 1, exc, pause)
                if pause > 0:
                    self._sleep(pause)
        raise AssertionError("unreachable")  # pragma: no cover


class CircuitBreaker:
    """Closed → open → half-open circuit breaker for one dependency.

    While **closed**, calls flow and consecutive failures are counted;
    at ``failure_threshold`` the breaker **opens** and :meth:`allow`
    refuses traffic for ``reset_timeout`` seconds.  After the cooldown a
    single **half-open** probe is admitted: success re-closes the
    breaker, failure re-opens it for another cooldown.  Example::

        breaker = CircuitBreaker(failure_threshold=3, reset_timeout=30.0)
        if not breaker.allow():
            raise CircuitOpenError("model is broken; probing later")
        try:
            result = backend.predict(batch)
        except Exception:
            breaker.record_failure()
            raise
        else:
            breaker.record_success()

    All methods are thread-safe; ``clock`` is injectable so tests can
    step time without sleeping.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout: float = 30.0,
        *,
        clock=time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError(f"failure_threshold must be >= 1, got {failure_threshold}")
        if reset_timeout < 0:
            raise ValueError(f"reset_timeout must be >= 0, got {reset_timeout}")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._clock = clock
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._failures = 0
        self._opened_at: float | None = None
        self._trips = 0

    @property
    def state(self) -> str:
        """Current state: ``"closed"``, ``"open"`` or ``"half_open"``.

        An open breaker whose cooldown has elapsed still reports
        ``"open"`` until :meth:`allow` admits the half-open probe.
        """
        with self._lock:
            return self._state

    @property
    def trips(self) -> int:
        """How many times the breaker has transitioned closed/half-open → open."""
        with self._lock:
            return self._trips

    def allow(self) -> bool:
        """Whether a call may proceed right now.

        Closed: always.  Open: only once the cooldown has elapsed, and
        then exactly one caller is admitted as the half-open probe (the
        rest keep getting ``False`` until the probe reports).
        """
        with self._lock:
            if self._state == self.CLOSED:
                return True
            if self._state == self.OPEN:
                if self._clock() - self._opened_at >= self.reset_timeout:
                    self._state = self.HALF_OPEN
                    return True  # this caller is the probe
                return False
            return False  # half-open: probe already in flight

    def record_success(self) -> None:
        """Report a successful call: closes the breaker, zeroes failures."""
        with self._lock:
            self._state = self.CLOSED
            self._failures = 0
            self._opened_at = None

    def record_failure(self) -> None:
        """Report a failed call: may trip the breaker open.

        A half-open probe failure re-opens immediately; a closed breaker
        opens at ``failure_threshold`` consecutive failures.
        """
        with self._lock:
            self._failures += 1
            if self._state == self.HALF_OPEN or self._failures >= self.failure_threshold:
                if self._state != self.OPEN:
                    self._trips += 1
                self._state = self.OPEN
                self._opened_at = self._clock()

    def call(self, fn):
        """Run ``fn()`` through the breaker.

        Raises :class:`~repro.serving.CircuitOpenError` without calling
        ``fn`` when the breaker refuses traffic; otherwise records the
        outcome and propagates ``fn``'s result or exception.
        """
        if not self.allow():
            raise CircuitOpenError(
                f"circuit breaker is open ({self._failures} consecutive failures; "
                f"probing again after {self.reset_timeout}s)"
            )
        try:
            result = fn()
        except Exception:
            self.record_failure()
            raise
        self.record_success()
        return result


class FallbackChain:
    """Ordered degradation ladder over interchangeable predict backends.

    ``tiers[0]`` is the primary; each tier gets its own
    :class:`CircuitBreaker`.  :meth:`predict_tiered` walks the ladder:
    tiers whose breaker refuses traffic are skipped, a tier whose
    ``predict`` raises trips its breaker and the next tier is tried, and
    the first success answers — with the serving tier's index, so
    callers can flag responses from tier > 0 as ``degraded``.  Example::

        fallback = build_fallback_tier(primary)          # HA baseline
        chain = FallbackChain([primary, fallback], failure_threshold=3)
        counts, tier = chain.predict_tiered(batch)
        degraded = tier > 0

    A chain is itself a valid :class:`~repro.serving.ForecastService`
    backend (it has ``predict``), and the service recognises chains to
    surface the per-request ``degraded`` flag.  When every tier fails
    the last tier's error propagates; when every tier's breaker is open
    a :class:`~repro.serving.CircuitOpenError` is raised.
    """

    def __init__(
        self,
        tiers,
        *,
        failure_threshold: int = 5,
        reset_timeout: float = 30.0,
        clock=time.monotonic,
    ):
        self.tiers = list(tiers)
        if not self.tiers:
            raise ValueError("FallbackChain needs at least one tier")
        self.breakers = [
            CircuitBreaker(failure_threshold, reset_timeout, clock=clock)
            for _ in self.tiers
        ]

    def __len__(self) -> int:
        """Number of tiers in the ladder (primary included)."""
        return len(self.tiers)

    def predict_tiered(self, batch):
        """Predict ``batch``, returning ``(result, tier_index)``.

        Walks the ladder in order; the index identifies the tier that
        answered (0 = primary, > 0 = degraded).
        """
        last_error: BaseException | None = None
        for index, (tier, breaker) in enumerate(zip(self.tiers, self.breakers)):
            if not breaker.allow():
                continue
            try:
                result = tier.predict(batch)
            except Exception as exc:  # noqa: BLE001 - try the next tier
                breaker.record_failure()
                last_error = exc
                continue
            breaker.record_success()
            return result, index
        if last_error is not None:
            raise last_error
        raise CircuitOpenError(
            f"all {len(self.tiers)} fallback tiers have open circuit breakers"
        )

    def predict(self, batch):
        """Backend duck-type: the tiered result without the tier index."""
        return self.predict_tiered(batch)[0]


def build_fallback_tier(primary, model: str = "HA"):
    """A cheap always-available fallback forecaster for ``primary``.

    Builds the registered ``model`` (default the historical-average
    baseline — ``requires_training=False``, so it is servable the moment
    it is constructed) with the *primary's* geometry, window and
    normalization statistics, so its predictions live on the same count
    scale and the two are interchangeable behind a
    :class:`FallbackChain`::

        primary = pool.get("sthsl.npz")
        chain = FallbackChain([primary, build_fallback_tier(primary)])

    Refuses models that require training — a fallback that must be
    fitted first is not always-available.
    """
    from ..api import Forecaster

    spec = primary.registry.spec(model)
    if spec.requires_training:
        raise ValueError(
            f"{model!r} requires training and cannot be an always-available "
            "fallback tier; use a statistical model (HA, ARIMA)"
        )
    if not primary.is_fitted:
        raise ValueError("primary forecaster is not fitted; load or fit it first")
    tier = Forecaster(
        model,
        budget=primary.budget,
        hidden=primary.hidden,
        registry=primary.registry,
    )
    tier.geometry = primary.geometry
    tier.model = spec.build(
        primary.geometry,
        window=primary.window,
        hidden=primary.hidden,
        seed=primary.budget.seed,
    )
    tier.mu = primary.mu
    tier.sigma = primary.sigma
    tier.categories = primary.categories
    return tier
