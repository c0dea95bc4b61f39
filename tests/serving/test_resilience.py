"""Resilience primitives: deadlines, retries, breakers, fallback tiers.

Deterministic unit coverage of ``repro.serving.resilience`` plus the
service-level integration of each knob (deadline shedding, bounded
admission, degraded fallback answers).  The fault-injection chaos suite
lives in ``test_faults.py``.
"""

import threading
import time

import numpy as np
import pytest

from repro.api import DataSpec, ExperimentBudget, Forecaster
from repro.serving import (
    ArtifactLoadError,
    CircuitBreaker,
    CircuitOpenError,
    Deadline,
    DeadlineExceededError,
    FallbackChain,
    ForecastService,
    RetryPolicy,
    ServiceOverloadedError,
    ServiceStoppedError,
    ServingError,
    WorkerCrashedError,
    build_fallback_tier,
)

BUDGET = ExperimentBudget(window=8, epochs=1, train_limit=4, seed=0)
DATASET = DataSpec(city="nyc", rows=4, cols=4, num_days=60, seed=0).load()


@pytest.fixture(scope="module")
def forecaster():
    return Forecaster("ST-HSL", budget=BUDGET, hidden=6).fit(DATASET)


def window(t=20):
    return DATASET.tensor[:, t : t + 8, :]


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestDeadline:
    def test_after_builds_a_future_instant(self):
        deadline = Deadline.after(5.0)
        assert not deadline.expired()
        assert 4.5 < deadline.remaining() <= 5.0

    def test_rejects_non_positive_budgets(self):
        with pytest.raises(ValueError, match="deadline"):
            Deadline.after(0)
        with pytest.raises(ValueError, match="deadline"):
            Deadline.after(-1.0)

    def test_expired_deadline_has_zero_remaining(self):
        past = Deadline(at=time.monotonic() - 1.0)
        assert past.expired()
        assert past.remaining() == 0.0


class TestRetryPolicy:
    def test_first_try_success_never_sleeps(self):
        slept = []
        policy = RetryPolicy(max_attempts=3, sleep=slept.append)
        assert policy.call(lambda: 42) == 42
        assert slept == [] and policy.retries == 0

    def test_transient_failure_is_retried_to_success(self):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise OSError("transient")
            return "ok"

        policy = RetryPolicy(max_attempts=3, base_delay=0.0)
        assert policy.call(flaky) == "ok"
        assert len(attempts) == 3 and policy.retries == 2

    def test_final_failure_reraises_the_original(self):
        policy = RetryPolicy(max_attempts=2, base_delay=0.0)
        with pytest.raises(OSError, match="persistent"):
            policy.call(lambda: (_ for _ in ()).throw(OSError("persistent")))
        assert policy.retries == 1

    def test_non_retryable_errors_fail_immediately(self):
        attempts = []

        def bad():
            attempts.append(1)
            raise ValueError("not transient")

        policy = RetryPolicy(max_attempts=5, base_delay=0.0, retryable=(OSError,))
        with pytest.raises(ValueError):
            policy.call(bad)
        assert len(attempts) == 1

    def test_backoff_is_capped_exponential_with_deterministic_jitter(self):
        def sleeps_of_one_call():
            slept = []
            calls = []
            policy = RetryPolicy(
                max_attempts=4,
                base_delay=0.1,
                max_delay=0.3,
                multiplier=2.0,
                jitter=0.5,
                seed=7,
                sleep=slept.append,
            )

            def always_fail():
                calls.append(1)
                raise OSError("nope")

            with pytest.raises(OSError):
                policy.call(always_fail)
            return slept

        first, second = sleeps_of_one_call(), sleeps_of_one_call()
        assert first == second  # fresh Random(seed) per call: reproducible
        assert len(first) == 3
        # un-jittered schedule 0.1, 0.2, 0.3 (capped); jitter adds 0-50 %
        for pause, base in zip(first, [0.1, 0.2, 0.3]):
            assert base <= pause <= base * 1.5

    def test_on_retry_callback_sees_each_attempt(self):
        seen = []
        policy = RetryPolicy(max_attempts=3, base_delay=0.0)

        def flaky():
            if len(seen) < 2:
                raise OSError("again")
            return "done"

        policy.call(flaky, on_retry=lambda n, exc, pause: seen.append(n))
        assert seen == [1, 2]

    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=-0.1)


class TestCircuitBreaker:
    def test_stays_closed_below_the_threshold(self):
        breaker = CircuitBreaker(failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()

    def test_opens_at_threshold_and_refuses_traffic(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout=30.0, clock=clock)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.trips == 1

    def test_success_resets_the_consecutive_failure_count(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"  # never two *consecutive* failures

    def test_half_open_admits_exactly_one_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=10.0, clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(10.0)
        assert breaker.allow()  # the probe
        assert breaker.state == "half_open"
        assert not breaker.allow()  # everyone else keeps waiting
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allow()

    def test_failed_probe_reopens_for_another_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=10.0, clock=clock)
        breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_failure()  # probe failed
        assert breaker.state == "open" and not breaker.allow()
        assert breaker.trips == 2
        clock.advance(10.0)
        assert breaker.allow()  # next probe after the fresh cooldown

    def test_call_wraps_the_allow_record_protocol(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=10.0, clock=clock)
        with pytest.raises(OSError):
            breaker.call(lambda: (_ for _ in ()).throw(OSError("dep down")))
        with pytest.raises(CircuitOpenError):
            breaker.call(lambda: "never runs")
        clock.advance(10.0)
        assert breaker.call(lambda: "recovered") == "recovered"
        assert breaker.state == "closed"

    def test_validation(self):
        with pytest.raises(ValueError, match="failure_threshold"):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError, match="reset_timeout"):
            CircuitBreaker(reset_timeout=-1.0)


class _Always:
    """Backend stub answering a constant, counting calls."""

    def __init__(self, value):
        self.value = value
        self.calls = 0

    def predict(self, batch):
        self.calls += 1
        return np.full((len(batch), 16, 4), self.value)


class _Broken:
    def __init__(self, error=None):
        self.calls = 0
        self.error = error or RuntimeError("primary exploded")

    def predict(self, batch):
        self.calls += 1
        raise self.error


class TestFallbackChain:
    def test_healthy_primary_answers_at_tier_zero(self):
        primary, backup = _Always(1.0), _Always(2.0)
        chain = FallbackChain([primary, backup])
        result, tier = chain.predict_tiered(np.zeros((3, 16, 8, 4)))
        assert tier == 0 and result[0, 0, 0] == 1.0
        assert backup.calls == 0

    def test_broken_primary_degrades_to_the_next_tier(self):
        primary, backup = _Broken(), _Always(2.0)
        chain = FallbackChain([primary, backup], failure_threshold=3)
        result, tier = chain.predict_tiered(np.zeros((3, 16, 8, 4)))
        assert tier == 1 and result[0, 0, 0] == 2.0

    def test_tripped_primary_is_skipped_without_being_called(self):
        primary, backup = _Broken(), _Always(2.0)
        chain = FallbackChain([primary, backup], failure_threshold=2)
        batch = np.zeros((1, 16, 8, 4))
        chain.predict_tiered(batch)
        chain.predict_tiered(batch)  # trips the primary breaker
        calls_before = primary.calls
        _, tier = chain.predict_tiered(batch)
        assert tier == 1
        assert primary.calls == calls_before  # breaker skipped it

    def test_every_tier_failing_raises_the_last_error(self):
        chain = FallbackChain(
            [_Broken(RuntimeError("a")), _Broken(RuntimeError("z"))]
        )
        with pytest.raises(RuntimeError, match="z"):
            chain.predict_tiered(np.zeros((1, 16, 8, 4)))

    def test_all_breakers_open_raises_circuit_open(self):
        chain = FallbackChain([_Broken(), _Broken()], failure_threshold=1)
        batch = np.zeros((1, 16, 8, 4))
        with pytest.raises(RuntimeError):
            chain.predict_tiered(batch)  # trips both breakers
        with pytest.raises(CircuitOpenError, match="all 2 fallback tiers"):
            chain.predict_tiered(batch)

    def test_predict_is_a_plain_backend_duck_type(self):
        chain = FallbackChain([_Always(3.0)])
        assert chain.predict(np.zeros((2, 16, 8, 4)))[0, 0, 0] == 3.0
        assert len(chain) == 1

    def test_needs_at_least_one_tier(self):
        with pytest.raises(ValueError, match="at least one tier"):
            FallbackChain([])


class TestBuildFallbackTier:
    def test_builds_a_servable_ha_twin_of_the_primary(self, forecaster):
        tier = build_fallback_tier(forecaster)
        assert tier.model_name == "HA"
        assert tier.geometry == forecaster.geometry
        assert np.array_equal(tier.mu, forecaster.mu)
        prediction = tier.predict(window())
        assert prediction.shape == (16, 4)

    def test_refuses_models_that_require_training(self, forecaster):
        with pytest.raises(ValueError, match="requires training"):
            build_fallback_tier(forecaster, model="ST-HSL")

    def test_refuses_an_unfitted_primary(self):
        with pytest.raises(ValueError, match="not fitted"):
            build_fallback_tier(Forecaster("ST-HSL", budget=BUDGET))

    def test_chain_over_real_models_degrades_to_the_ha_answer(self, forecaster):
        tier = build_fallback_tier(forecaster)
        chain = FallbackChain([_Broken(), tier], failure_threshold=3)
        batch = window()[None]
        result, served_by = chain.predict_tiered(batch)
        assert served_by == 1
        assert np.array_equal(result, tier.predict(batch))


class TestErrorTaxonomy:
    def test_every_serving_error_is_a_runtime_error(self):
        for cls in (
            DeadlineExceededError,
            ServiceOverloadedError,
            ServiceStoppedError,
            CircuitOpenError,
            ArtifactLoadError,
            WorkerCrashedError,
        ):
            assert issubclass(cls, ServingError)
            assert issubclass(cls, RuntimeError)

    def test_deadline_exceeded_is_also_a_timeout(self):
        assert issubclass(DeadlineExceededError, TimeoutError)


class TestServiceDeadlines:
    def test_within_budget_requests_are_unaffected(self, forecaster):
        with ForecastService(forecaster, deadline=30.0) as service:
            handle = service.submit(window())
            result = handle.wait()
            assert result.shape == (16, 4)
            assert not handle.degraded and handle.tier == 0
        assert service.stats().shed == 0

    def test_expired_queued_request_is_shed_before_compute(self, forecaster):
        release = threading.Event()
        inner = forecaster

        class SlowOnce:
            def __init__(self):
                self.first = True

            def predict(self, batch):
                if self.first:
                    self.first = False
                    release.wait(10)
                return inner.predict(batch)

        with ForecastService(SlowOnce(), max_batch=1, max_delay=0.0) as service:
            blocker = service.submit(window())  # occupies the worker
            doomed = service.submit(window(), deadline=0.05)
            time.sleep(0.15)  # the deadline lapses while queued
            release.set()
            blocker.wait(timeout=10)
            with pytest.raises(DeadlineExceededError, match="shed before compute"):
                doomed.wait(timeout=10)
            stats = service.stats()
        assert stats.shed == 1
        assert stats.requests == 2

    def test_service_wide_default_deadline_applies_to_submit(self, forecaster):
        with ForecastService(forecaster, deadline=30.0) as service:
            handle = service.submit(window())
            assert handle.deadline is not None
            assert handle.deadline.remaining() > 20
            handle.wait()

    def test_constructor_validation(self, forecaster):
        with pytest.raises(ValueError, match="deadline"):
            ForecastService(forecaster, deadline=0)
        with pytest.raises(ValueError, match="max_queue"):
            ForecastService(forecaster, max_queue=0)


class TestServiceAdmissionControl:
    def test_full_queue_rejects_with_overloaded_error(self, forecaster):
        release = threading.Event()
        inner = forecaster

        class Gate:
            def predict(self, batch):
                release.wait(10)
                return inner.predict(batch)

        with ForecastService(Gate(), max_batch=1, max_delay=0.0, max_queue=2) as service:
            first = service.submit(window())
            time.sleep(0.05)  # worker picks up `first`, queue is empty again
            queued = [service.submit(window()), service.submit(window())]
            with pytest.raises(ServiceOverloadedError, match="back off"):
                service.submit(window())
            release.set()
            first.wait(timeout=10)
            for handle in queued:
                handle.wait(timeout=10)
            stats = service.stats()
        assert stats.rejected == 1
        assert stats.requests == 3  # the rejected request never entered

    def test_submit_after_stop_raises_typed_error(self, forecaster):
        service = ForecastService(forecaster).start()
        service.stop()
        with pytest.raises(ServiceStoppedError, match="not running"):
            service.submit(window())


class TestServiceDegradation:
    def test_broken_primary_served_by_fallback_is_flagged_degraded(self, forecaster):
        tier = build_fallback_tier(forecaster)
        with ForecastService(_Broken(), fallback=tier) as service:
            handle = service.submit(window())
            result = handle.wait(timeout=10)
            assert handle.degraded and handle.tier == 1
            assert np.array_equal(result, tier.predict(window()[None])[0])
            stats = service.stats()
        assert stats.degraded == 1
        assert stats.failed == 0

    def test_healthy_primary_with_fallback_stays_undegraded(self, forecaster):
        tier = build_fallback_tier(forecaster)
        with ForecastService(forecaster, fallback=tier) as service:
            handle = service.submit(window())
            result = handle.wait(timeout=10)
            assert not handle.degraded and handle.tier == 0
            assert np.array_equal(result, forecaster.predict(window()[None])[0])
        assert service.stats().degraded == 0

    def test_every_request_answered_when_primary_fails_totally(self, forecaster):
        """The acceptance bar: primary at 100 % failure, every request
        still gets an answer, every answer flagged degraded."""
        tier = build_fallback_tier(forecaster)
        wins = [DATASET.tensor[:, t : t + 8, :] for t in range(10, 22)]
        with ForecastService(
            _Broken(), fallback=tier, max_batch=4, breaker_failures=3
        ) as service:
            handles = [service.submit(w) for w in wins]
            results = [h.wait(timeout=30) for h in handles]
            assert all(h.degraded for h in handles)
            for got, w in zip(results, wins):
                assert np.allclose(got, tier.predict(w[None])[0], atol=1e-10)
            stats = service.stats()
        assert stats.degraded == len(wins)
        assert stats.failed == 0

    def test_fallback_chain_is_a_valid_backend(self, forecaster):
        tier = build_fallback_tier(forecaster)
        chain = FallbackChain([_Broken(), tier], failure_threshold=3)
        with ForecastService(chain) as service:
            handle = service.submit(window())
            handle.wait(timeout=10)
            assert handle.degraded
        assert service.stats().degraded == 1

    def test_stats_payload_carries_the_resilience_counters(self, forecaster):
        with ForecastService(forecaster) as service:
            service.predict(window())
            payload = service.stats().to_dict()
        for key in ("shed", "rejected", "degraded", "retried", "broken",
                    "failed", "worker_deaths"):
            assert key in payload
