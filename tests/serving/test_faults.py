"""Chaos suite: deterministic fault injection against the serving stack.

Every test drives a seeded :class:`~repro.serving.FaultPlan` (or real
on-disk corruption via :func:`~repro.serving.corrupt_artifact`) through
the explicit hook sites and locks the resilience invariant:

    Under any injected fault plan, every submitted request terminates —
    a result, a degraded result, or a typed ServingError — and the
    service stays serviceable afterwards.

Select with ``-m chaos``.
"""

import threading
import time

import numpy as np
import pytest

from repro.api import DataSpec, ExperimentBudget, Forecaster
from repro.serving import (
    ArtifactLoadError,
    DeadlineExceededError,
    FaultPlan,
    ForecastService,
    InjectedFault,
    ModelPool,
    NetworkServer,
    RemoteError,
    RemoteForecastService,
    RetryPolicy,
    ServingError,
    WorkerCrashedError,
    WorkerPool,
    build_fallback_tier,
    corrupt_artifact,
)

pytestmark = pytest.mark.chaos

BUDGET = ExperimentBudget(window=8, epochs=1, train_limit=4, seed=0)
DATASET = DataSpec(city="nyc", rows=4, cols=4, num_days=60, seed=0).load()


@pytest.fixture(scope="module")
def forecaster():
    return Forecaster("ST-HSL", budget=BUDGET, hidden=6).fit(DATASET)


@pytest.fixture(scope="module")
def artifact(tmp_path_factory, forecaster):
    path = tmp_path_factory.mktemp("chaos_artifacts") / "sthsl.npz"
    forecaster.save(path)
    return path


def window(t=20):
    return DATASET.tensor[:, t : t + 8, :]


class TestFaultPlan:
    def test_nth_rule_fires_on_exactly_that_call(self):
        plan = FaultPlan().fail("x", nth=2)
        plan("x")
        with pytest.raises(InjectedFault, match="call 2"):
            plan("x")
        plan("x")  # third call clean again
        assert plan.calls("x") == 3
        assert plan.injected() == [("x", "raise", 2)]

    def test_nth_with_times_covers_a_window_of_calls(self):
        plan = FaultPlan().fail("x", nth=2, times=2)
        plan("x")
        for _ in range(2):
            with pytest.raises(InjectedFault):
                plan("x")
        plan("x")  # budget spent

    def test_every_rule_fires_periodically(self):
        plan = FaultPlan().fail("x", every=3)
        fired = 0
        for _ in range(9):
            try:
                plan("x")
            except InjectedFault:
                fired += 1
        assert fired == 3

    def test_rate_rule_is_deterministic_across_replays(self):
        def replay():
            plan = FaultPlan(seed=42).fail("x", rate=0.5)
            hits = []
            for index in range(20):
                try:
                    plan("x")
                except InjectedFault:
                    hits.append(index)
            return hits

        first, second = replay(), replay()
        assert first == second
        assert 0 < len(first) < 20

    def test_custom_error_instances_are_cloned_per_raise(self):
        plan = FaultPlan().fail("x", error=OSError("disk glitch"), times=2)
        raised = []
        for _ in range(2):
            with pytest.raises(OSError, match="disk glitch") as excinfo:
                plan("x")
            raised.append(excinfo.value)
        assert raised[0] is not raised[1]  # no shared traceback

    def test_delay_rule_sleeps_without_raising(self):
        plan = FaultPlan().delay("x", 0.05, nth=1)
        start = time.perf_counter()
        plan("x")
        assert time.perf_counter() - start >= 0.05
        assert plan.injected() == [("x", "delay", 1)]

    def test_sites_are_independent(self):
        plan = FaultPlan().fail("a", nth=1)
        plan("b")
        with pytest.raises(InjectedFault):
            plan("a")
        assert plan.calls("a") == 1 and plan.calls("b") == 1

    def test_reset_restores_the_full_schedule(self):
        plan = FaultPlan().fail("x", nth=1)
        with pytest.raises(InjectedFault):
            plan("x")
        plan.reset()
        assert plan.calls("x") == 0 and plan.injected() == []
        with pytest.raises(InjectedFault):
            plan("x")

    def test_validation(self):
        with pytest.raises(ValueError, match="1-based"):
            FaultPlan().fail("x", nth=0)
        with pytest.raises(ValueError, match="seconds"):
            FaultPlan().delay("x", -1.0)


class TestArtifactCorruption:
    @pytest.mark.parametrize("mode", ["truncate", "garbage", "empty"])
    def test_corrupted_artifact_fails_load_with_typed_error(
        self, tmp_path, forecaster, mode
    ):
        path = tmp_path / f"{mode}.npz"
        forecaster.save(path)
        corrupt_artifact(path, mode=mode)
        pool = ModelPool(capacity=2)
        with pytest.raises(ArtifactLoadError, match="failed to load"):
            pool.get(path)
        assert pool.stats().load_failures == 1

    def test_unknown_mode_rejected(self, tmp_path, forecaster):
        path = tmp_path / "a.npz"
        forecaster.save(path)
        with pytest.raises(ValueError, match="corruption mode"):
            corrupt_artifact(path, mode="bitflip")


class TestPoolFaults:
    def test_transient_load_failure_is_retried_to_success(self, artifact):
        plan = FaultPlan().fail("pool.load", nth=1, error=OSError("flaky fs"))
        retry = RetryPolicy(max_attempts=3, base_delay=0.0)
        pool = ModelPool(capacity=2, retry=retry, fault_hook=plan)
        fc = pool.get(artifact)
        assert fc.predict(window()).shape == (16, 4)
        assert retry.retries == 1
        assert pool.stats().load_failures == 0

    def test_persistent_failure_quarantines_without_a_retry_storm(self, artifact):
        plan = FaultPlan().fail("pool.load", error=OSError("dead disk"))
        pool = ModelPool(
            capacity=2, quarantine_cooldown=30.0, fault_hook=plan
        )
        with pytest.raises(ArtifactLoadError) as excinfo:
            pool.get(artifact)
        assert isinstance(excinfo.value.__cause__, OSError)
        loads_attempted = plan.calls("pool.load")
        # While quarantined, repeated gets fail fast without touching disk.
        for _ in range(5):
            with pytest.raises(ArtifactLoadError, match="quarantined"):
                pool.get(artifact)
        assert plan.calls("pool.load") == loads_attempted  # no storm
        stats = pool.stats()
        assert stats.load_failures == 1
        assert stats.quarantined == (str(artifact.resolve()),)

    def test_quarantine_expiry_probes_the_load_again(self, artifact):
        plan = FaultPlan().fail("pool.load", nth=1, error=OSError("torn write"))
        pool = ModelPool(capacity=2, quarantine_cooldown=0.05, fault_hook=plan)
        with pytest.raises(ArtifactLoadError):
            pool.get(artifact)
        time.sleep(0.06)  # cooldown over: the next get probes (and heals)
        fc = pool.get(artifact)
        assert fc.predict(window()).shape == (16, 4)
        assert pool.stats().quarantined == ()


class TestServiceFaults:
    def test_worker_death_fails_inflight_requests_and_respawns(self, forecaster):
        plan = FaultPlan().fail("service.worker", nth=1)
        with ForecastService(forecaster, fault_hook=plan) as service:
            doomed = service.submit(window())
            with pytest.raises(WorkerCrashedError, match="died mid-batch") as excinfo:
                doomed.wait(timeout=10)
            # wait() re-raises a per-waiter clone chained to the original
            # WorkerCrashedError, which in turn chains the injected fault.
            chain = []
            error = excinfo.value
            while error is not None:
                chain.append(error)
                error = error.__cause__
            assert any(isinstance(e, InjectedFault) for e in chain)
            # the respawned worker keeps serving
            result = service.predict(window(), timeout=10)
            assert np.array_equal(result, forecaster.predict(window()))
            stats = service.stats()
        assert stats.worker_deaths == 1
        assert stats.failed == 1

    def test_latency_spike_sheds_a_deadlined_neighbour(self, forecaster):
        plan = FaultPlan().delay("service.worker", 0.3, nth=1)
        with ForecastService(
            forecaster, max_batch=1, max_delay=0.0, fault_hook=plan
        ) as service:
            slow = service.submit(window())  # rides the injected 300 ms spike
            doomed = service.submit(window(), deadline=0.05)
            assert slow.wait(timeout=10).shape == (16, 4)
            with pytest.raises(DeadlineExceededError):
                doomed.wait(timeout=10)
            stats = service.stats()
        assert stats.shed == 1

    def test_predict_fault_degrades_to_the_fallback_tier(self, forecaster):
        tier = build_fallback_tier(forecaster)
        plan = FaultPlan().fail("service.predict", nth=1, times=1)
        # The chain absorbs the injected primary failure invisibly: the
        # fault site raises before the chain dispatches, so the request
        # is retried singly and then served (possibly degraded).
        with ForecastService(forecaster, fallback=tier, fault_hook=plan) as service:
            handle = service.submit(window())
            result = handle.wait(timeout=10)
            assert result.shape == (16, 4)
        assert service.stats().requests == 1

    def test_predict_fault_without_fallback_reaches_the_caller_typed_or_raw(
        self, forecaster
    ):
        plan = FaultPlan().fail("service.predict", every=1)
        with ForecastService(forecaster, max_batch=1, fault_hook=plan) as service:
            handle = service.submit(window())
            with pytest.raises(InjectedFault):
                handle.wait(timeout=10)
            stats = service.stats()
        assert stats.failed == 1


class TestChaosInvariant:
    """The headline guarantee, under compound fault plans."""

    def _run_traffic(self, service, count=16, deadline=None):
        """Submit ``count`` requests from 4 threads; every handle must
        terminate with a result or a typed error within the timeout."""
        wins = [DATASET.tensor[:, 10 + t : 18 + t, :] for t in range(count)]
        handles = [None] * count
        submit_errors = [None] * count
        lock = threading.Lock()
        cursor = iter(range(count))

        def client():
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                try:
                    handles[index] = service.submit(wins[index], deadline=deadline)
                except ServingError as exc:
                    submit_errors[index] = exc

        threads = [threading.Thread(target=client) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        outcomes = []
        for handle, submit_error in zip(handles, submit_errors):
            if submit_error is not None:
                outcomes.append(("rejected", submit_error))
                continue
            try:
                result = handle.wait(timeout=30)
            except (ServingError, InjectedFault) as exc:
                outcomes.append(("error", exc))
            else:
                kind = "degraded" if handle.degraded else "ok"
                outcomes.append((kind, result))
        return outcomes

    def test_every_request_terminates_under_compound_faults(self, forecaster):
        plan = (
            FaultPlan(seed=3)
            .fail("service.worker", nth=2)          # one worker death
            .delay("service.worker", 0.05, every=5)  # periodic latency spikes
            .fail("service.predict", rate=0.3)       # flaky primary
        )
        tier = build_fallback_tier(forecaster)
        service = ForecastService(
            forecaster,
            fallback=tier,
            max_batch=4,
            workers=2,
            max_queue=64,
            fault_hook=plan,
        )
        with service:
            outcomes = self._run_traffic(service, count=24)
            assert len(outcomes) == 24  # nobody hung
            for kind, payload in outcomes:
                if kind in ("ok", "degraded"):
                    assert payload.shape == (16, 4)
                else:
                    assert isinstance(payload, (ServingError, InjectedFault))
            # the service is still serviceable after the storm
            assert service.running
            assert service.predict(window(), timeout=10).shape == (16, 4)

    def test_total_primary_failure_with_fallback_answers_everyone(self, forecaster):
        class Dead:
            def predict(self, batch):
                raise RuntimeError("primary at 100% failure")

        tier = build_fallback_tier(forecaster)
        from repro.serving import FallbackChain

        chain = FallbackChain([Dead(), tier], failure_threshold=4)
        with ForecastService(chain, max_batch=4) as service:
            outcomes = self._run_traffic(service, count=12)
        assert len(outcomes) == 12
        assert all(kind == "degraded" for kind, _ in outcomes)

    def test_deadline_plus_faults_never_hangs_a_waiter(self, forecaster):
        plan = (
            FaultPlan(seed=9)
            .delay("service.worker", 0.15, every=2)
            .fail("service.worker", nth=3)
        )
        with ForecastService(
            forecaster, max_batch=2, fault_hook=plan, max_queue=32
        ) as service:
            outcomes = self._run_traffic(service, count=12, deadline=0.4)
            assert len(outcomes) == 12
            for kind, payload in outcomes:
                if kind == "ok":
                    assert payload.shape == (16, 4)
                else:
                    assert isinstance(payload, (ServingError, InjectedFault))
            assert service.running


class TestNetworkChaos:
    """Chaos at the network edge: dropped connections, slow clients,
    murdered worker processes — driven through the ``net.accept`` /
    ``net.read`` hook sites and real SIGKILLs.

    The invariant extends across the wire: under any injected network
    fault, every request terminates with a result or a typed error, the
    *connection* may die but the *server* never does, and a respawned
    worker process picks up where the corpse left off.
    """

    def test_accept_fault_drops_the_connection_not_the_server(self, forecaster):
        plan = FaultPlan(seed=3).fail("net.accept", nth=1)
        with ForecastService(forecaster, max_batch=1) as service:
            with NetworkServer(service, port=0, fault_hook=plan) as server:
                client = RemoteForecastService(server.url, timeout=10.0)
                try:
                    # First connection is dropped before a byte is read.
                    with pytest.raises(RemoteError):
                        client.predict(window())
                    # The client dials a fresh connection; the server is fine.
                    assert client.predict(window()).shape == (16, 4)
                finally:
                    client.stop()
                assert server.stats()["disconnects"] >= 1
                assert plan.calls("net.accept") >= 2

    def test_read_fault_is_a_mid_request_disconnect(self, forecaster):
        plan = FaultPlan(seed=4).fail("net.read", nth=1)
        with ForecastService(forecaster, max_batch=1) as service:
            with NetworkServer(service, port=0, fault_hook=plan) as server:
                client = RemoteForecastService(server.url, timeout=10.0)
                try:
                    # Headers are read, then the connection dies mid-body.
                    with pytest.raises(RemoteError):
                        client.predict(window())
                    assert client.predict(window()).shape == (16, 4)
                finally:
                    client.stop()
                assert server.stats()["disconnects"] >= 1

    def test_slow_loris_read_hits_the_deadline(self, forecaster):
        # The injected delay models a client dribbling its body slower
        # than the read budget: the edge must answer 408 with a typed
        # deadline error instead of holding the connection open forever.
        plan = FaultPlan(seed=5).delay("net.read", 0.6, nth=1)
        with ForecastService(forecaster, max_batch=1) as service:
            with NetworkServer(
                service, port=0, read_timeout=0.2, fault_hook=plan
            ) as server:
                client = RemoteForecastService(server.url, timeout=10.0)
                try:
                    with pytest.raises(DeadlineExceededError):
                        client.predict(window())
                    assert client.predict(window()).shape == (16, 4)
                finally:
                    client.stop()
                assert server.stats()["read_timeouts"] == 1

    def test_worker_process_sigkill_drops_zero_requests(self, artifact, forecaster):
        import os
        import signal as _signal

        expected = forecaster.predict(window())
        with WorkerPool(str(artifact), workers=2, job_timeout=60.0) as pool:
            with ForecastService(pool, workers=2, max_batch=1) as service:
                victim = pool._pool[0].process
                os.kill(victim.pid, _signal.SIGKILL)
                victim.join(5)
                # Every request completes correctly: the crashed job is
                # retried by the service against the respawned worker.
                results = [service.predict(window(), timeout=60) for _ in range(8)]
                assert all(np.array_equal(r, expected) for r in results)
                assert pool.deaths >= 1
                assert service.running

    def test_dispatch_faults_surface_without_killing_the_pool(self, artifact):
        # Dispatch call 1 is start()'s warm-up ping, so nth=3 targets the
        # second predict.
        plan = FaultPlan(seed=6).fail("workers.dispatch", nth=3)
        with WorkerPool(str(artifact), workers=1, fault_hook=plan, job_timeout=60.0) as pool:
            assert pool.predict(window()).shape == (16, 4)
            with pytest.raises(InjectedFault):
                pool.predict(window())
            # The pool survives an injected dispatch failure.
            assert pool.predict(window()).shape == (16, 4)
        assert plan.calls("workers.dispatch") == 4
