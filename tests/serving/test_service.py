"""ForecastService: correctness under concurrency, coalescing, lifecycle."""

import threading

import numpy as np
import pytest

from repro.api import DataSpec, ExperimentBudget, Forecaster
from repro.serving import ForecastService, WorkerCrashedError
from repro.serving.service import _percentile

BUDGET = ExperimentBudget(window=8, epochs=1, train_limit=4, seed=0)
DATASET = DataSpec(city="nyc", rows=4, cols=4, num_days=60, seed=0).load()


@pytest.fixture(scope="module")
def forecaster():
    return Forecaster("ST-HSL", budget=BUDGET, hidden=6).fit(DATASET)


def windows(count, start=10):
    return [DATASET.tensor[:, t : t + 8, :] for t in range(start, start + count)]


class TestSingleClient:
    def test_predict_matches_direct_forecaster(self, forecaster):
        window = DATASET.tensor[:, 20:28, :]
        with ForecastService(forecaster) as service:
            assert np.array_equal(service.predict(window), forecaster.predict(window))

    def test_submit_returns_waitable_handle(self, forecaster):
        window = DATASET.tensor[:, 15:23, :]
        with ForecastService(forecaster) as service:
            handle = service.submit(window)
            result = handle.wait(timeout=30)
            assert handle.done()
            assert result.shape == (16, 4)

    def test_predict_many_preserves_order(self, forecaster):
        batch = windows(6)
        with ForecastService(forecaster, max_batch=4) as service:
            results = service.predict_many(batch)
        expected = [forecaster.predict(w) for w in batch]
        for got, want in zip(results, expected):
            assert np.allclose(got, want, atol=1e-10)

    def test_rejects_malformed_window(self, forecaster):
        with ForecastService(forecaster) as service:
            with pytest.raises(ValueError, match="expected a"):
                service.submit(np.zeros((16, 8)))


class TestConcurrentClients:
    def test_every_client_gets_its_own_result(self, forecaster):
        """4 clients, distinct windows — results must match per-sample
        predictions (coalescing may round at f32/f64 epsilon scale)."""
        per_client = windows(8)
        expected = [forecaster.predict(w) for w in per_client]
        results = {}

        with ForecastService(forecaster, max_batch=4) as service:

            def client(idx):
                results[idx] = [service.predict(w) for w in per_client]

            threads = [threading.Thread(target=client, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stats = service.stats()

        for idx in range(4):
            for got, want in zip(results[idx], expected):
                assert np.allclose(got, want, atol=1e-10)
        assert stats.requests == 32

    def test_concurrent_requests_coalesce_into_micro_batches(self, forecaster):
        barrier = threading.Barrier(4)
        with ForecastService(forecaster, max_batch=4, max_delay=0.05) as service:

            def client(window):
                barrier.wait()  # all four submit together
                service.predict(window)

            threads = [
                threading.Thread(target=client, args=(w,)) for w in windows(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stats = service.stats()
        assert stats.requests == 4
        assert stats.batches < 4  # at least some coalescing happened
        assert stats.mean_batch > 1.0

    def test_max_batch_bounds_coalescing(self, forecaster):
        with ForecastService(forecaster, max_batch=2, max_delay=0.05) as service:
            service.predict_many(windows(8))
            stats = service.stats()
        assert stats.requests == 8
        assert stats.batches >= 4  # 8 requests / cap 2


class TestStatsAndLifecycle:
    def test_stats_track_latency_and_throughput(self, forecaster):
        with ForecastService(forecaster) as service:
            service.predict_many(windows(5))
            stats = service.stats()
        assert stats.requests == 5
        assert stats.requests_per_sec > 0
        assert 0 < stats.latency_p50 <= stats.latency_p95
        payload = stats.to_dict()
        assert payload["requests"] == 5 and payload["latency_p95_ms"] > 0

    def test_latency_percentiles_use_nearest_rank(self):
        latencies = [ms / 1e3 for ms in range(1, 21)]
        assert _percentile(latencies, 50) == 0.010
        assert _percentile(latencies, 95) == 0.019
        assert _percentile([], 95) == 0.0

    def test_reset_stats_zeroes_counters(self, forecaster):
        with ForecastService(forecaster) as service:
            service.predict(DATASET.tensor[:, 12:20, :])
            service.reset_stats()
            assert service.stats().requests == 0

    def test_submit_after_stop_raises(self, forecaster):
        service = ForecastService(forecaster).start()
        service.stop()
        with pytest.raises(RuntimeError, match="not running"):
            service.submit(DATASET.tensor[:, 12:20, :])

    def test_stop_drains_queued_requests(self, forecaster):
        service = ForecastService(forecaster, max_batch=2).start()
        handles = [service.submit(w) for w in windows(6)]
        service.stop()
        for handle in handles:
            assert handle.wait(timeout=1).shape == (16, 4)

    def test_start_is_idempotent_and_restartable(self, forecaster):
        service = ForecastService(forecaster)
        service.start().start()
        window = DATASET.tensor[:, 18:26, :]
        assert service.predict(window).shape == (16, 4)
        service.stop()
        service.start()  # restart after stop
        assert service.predict(window).shape == (16, 4)
        service.stop()

    def test_backend_error_reaches_the_caller_not_the_worker(self, forecaster):
        class Broken:
            def predict(self, batch):
                raise RuntimeError("backend exploded")

        with ForecastService(Broken()) as service:
            handle = service.submit(np.zeros((16, 8, 4)))
            with pytest.raises(RuntimeError, match="backend exploded"):
                handle.wait(timeout=5)
            # the worker survives a poisoned batch
            assert service.running

    def test_bad_request_does_not_poison_batch_neighbours(self, forecaster):
        good = DATASET.tensor[:, 20:28, :]
        bad = np.zeros((9, 8, 4))  # wrong region count for the model
        with ForecastService(forecaster, max_batch=4, max_delay=0.05) as service:
            handles = [service.submit(good), service.submit(bad), service.submit(good)]
            assert handles[0].wait(timeout=30).shape == (16, 4)
            with pytest.raises(Exception):
                handles[1].wait(timeout=30)
            assert handles[2].wait(timeout=30).shape == (16, 4)

    def test_validation_errors_ride_on_parameters(self, forecaster):
        with pytest.raises(ValueError, match="max_batch"):
            ForecastService(forecaster, max_batch=0)
        with pytest.raises(ValueError, match="max_delay"):
            ForecastService(forecaster, max_delay=-1.0)
        with pytest.raises(ValueError, match="workers"):
            ForecastService(forecaster, workers=0)


class TestErrorPropagation:
    class Broken:
        def predict(self, batch):
            raise RuntimeError("backend exploded")

    def test_each_waiter_gets_its_own_exception_instance(self):
        """Re-raising the one stored exception from several client threads
        concurrently mutates its __traceback__; every wait() must raise a
        fresh clone chained to the original instead."""
        with ForecastService(self.Broken()) as service:
            handle = service.submit(np.zeros((16, 8, 4)))
            raised = []
            for _ in range(3):
                with pytest.raises(RuntimeError, match="backend exploded") as excinfo:
                    handle.wait(timeout=5)
                raised.append(excinfo.value)
        assert len({id(exc) for exc in raised}) == 3  # three distinct clones
        for exc in raised:
            assert exc is not handle.error
            assert exc.__cause__ is handle.error  # chained to the original

    def test_wait_from_concurrent_threads_never_shares_the_instance(self):
        import threading

        with ForecastService(self.Broken()) as service:
            handle = service.submit(np.zeros((16, 8, 4)))
            seen = []
            barrier = threading.Barrier(4)

            def client():
                barrier.wait()
                try:
                    handle.wait(timeout=5)
                except RuntimeError as exc:
                    seen.append(exc)

            threads = [threading.Thread(target=client) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert len(seen) == 4
        assert len({id(exc) for exc in seen}) == 4

    def test_unclonable_exception_falls_back_to_original(self):
        class Picky(Exception):
            def __init__(self, code, detail):
                super().__init__(f"{code}: {detail}")

        class Backend:
            def predict(self, batch):
                raise Picky(500, "boom")

        with ForecastService(Backend()) as service:
            handle = service.submit(np.zeros((16, 8, 4)))
            with pytest.raises(Picky, match="500: boom") as excinfo:
                handle.wait(timeout=5)
        assert excinfo.value is handle.error  # args don't round-trip: original

    def test_arg_transforming_exception_is_not_double_wrapped(self):
        """A constructor that formats its single argument would re-format
        the already-formatted args on cloning; wait() must hand back the
        original instead of a 'data error data error 5' clone."""

        class DataError(Exception):
            def __init__(self, code):
                super().__init__(f"data error {code}")

        class Backend:
            def predict(self, batch):
                raise DataError(5)

        with ForecastService(Backend()) as service:
            handle = service.submit(np.zeros((16, 8, 4)))
            with pytest.raises(DataError) as excinfo:
                handle.wait(timeout=5)
        assert str(excinfo.value) == "data error 5"
        assert excinfo.value is handle.error

    @pytest.mark.parametrize("signal", [KeyboardInterrupt, SystemExit])
    def test_non_exception_from_backend_is_a_typed_worker_crash(self, signal):
        """A backend's KeyboardInterrupt or SystemExit must not reach the
        waiter raw (in a client's main thread it would read as Ctrl-C or
        an exit): the batch fails with WorkerCrashedError and a respawned
        worker serves on."""

        class InterruptOnce:
            calls = 0

            def predict(self, batch):
                InterruptOnce.calls += 1
                if InterruptOnce.calls == 1:
                    raise signal
                return np.zeros((len(batch), 16, 4))

        with ForecastService(InterruptOnce()) as service:
            with pytest.raises(WorkerCrashedError):
                service.submit(np.zeros((16, 8, 4))).wait(timeout=5)
            assert service.predict(np.zeros((16, 8, 4)), timeout=5).shape == (16, 4)
            stats = service.stats()
        assert stats.worker_deaths == 1
        assert stats.retried == 0


class TestTimedOutRequests:
    def test_late_completion_does_not_skew_latency_stats(self, forecaster):
        """A request whose waiter timed out completes late; its latency must
        not enter the percentiles (it measures the timeout, not the
        service)."""
        import threading

        release = threading.Event()
        inner = forecaster

        class SlowOnce:
            def __init__(self):
                self.first = True

            def predict(self, batch):
                if self.first:
                    self.first = False
                    release.wait(10)  # hold the first batch hostage
                return inner.predict(batch)

        import time

        window = DATASET.tensor[:, 20:28, :]
        with ForecastService(SlowOnce(), max_delay=0.0) as service:
            slow = service.submit(window)
            with pytest.raises(TimeoutError):
                slow.wait(timeout=0.05)
            assert slow.abandoned
            time.sleep(0.4)  # the held batch is now ancient
            release.set()
            slow._event.wait(5)  # let the worker finish the held batch
            for _ in range(3):
                service.predict(window)
            stats = service.stats()
        assert stats.requests == 4  # the abandoned request still counts
        # But its ~0.45 s enqueue-to-completion never entered the latency
        # window: only the three fast requests are measured.
        assert 0 < stats.latency_p95 < 0.2


class TestWorkerPool:
    def test_multi_worker_service_serves_correct_results(self, forecaster):
        batch = windows(8)
        expected = [forecaster.predict(w) for w in batch]
        with ForecastService(forecaster, max_batch=2, workers=3) as service:
            results = service.predict_many(batch)
            stats = service.stats()
        assert stats.requests == 8
        for got, want in zip(results, expected):
            assert np.allclose(got, want, atol=1e-10)

    def test_workers_attribute_and_thread_names(self, forecaster):
        import threading

        with ForecastService(forecaster, workers=2) as service:
            assert service.workers == 2
            names = {t.name for t in threading.enumerate()}
            assert {"forecast-service-0", "forecast-service-1"} <= names

    def test_worker_stuck_past_stop_timeout_retires_and_never_doubles(self, forecaster):
        """A worker that outlives stop(timeout) must exit once unstuck (its
        generation is stale) instead of rejoining the restarted pool, and a
        later stop() must still join it."""
        import threading
        import time

        release = threading.Event()
        inner = forecaster

        class StickyOnce:
            def __init__(self):
                self.first = True

            def predict(self, batch):
                if self.first:
                    self.first = False
                    release.wait(10)
                return inner.predict(batch)

        window = DATASET.tensor[:, 20:28, :]
        service = ForecastService(StickyOnce(), workers=1).start()
        stuck = service.submit(window)
        time.sleep(0.05)  # let the worker enter the sticky predict
        service.stop(timeout=0.05)  # worker outlives the deadline
        assert len(service._threads) == 1  # orphan stays tracked
        service.start()  # new generation pool
        assert service.predict(window, timeout=30).shape == (16, 4)
        release.set()
        assert stuck.wait(timeout=5).shape == (16, 4)
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            workers = [
                t
                for t in threading.enumerate()
                if t.name.startswith("forecast-service") and t.is_alive()
            ]
            if len(workers) == 1:
                break
            time.sleep(0.01)
        assert len(workers) == 1  # the orphan retired itself
        service.stop()
