"""Process-worker suite: WorkerPool correctness, crash recovery, jobs.

Real ``multiprocessing`` processes, real pipes, real SIGKILLs — the
properties locked here:

* a pool prediction is **bitwise-equal** to the in-process one (the
  pickled ndarray round trip is exact, and each worker owns a private
  arena — shared-nothing);
* a worker killed with SIGKILL is detected, respawned, and the
  interrupted job fails typed
  (:class:`~repro.serving.WorkerCrashedError`) while later jobs
  succeed — and behind a :class:`~repro.serving.ForecastService` the
  retry isolation turns that into **zero dropped requests**;
* the pool satisfies the service-backend duck type, so the whole
  serving stack (deadlines, stats, micro-batching) composes on top.

Select with ``-m network`` (the process-boundary suite rides the same
CI step and SIGALRM watchdog as the socket tests).
"""

import os
import signal

import numpy as np
import pytest

from repro.api import DataSpec, ExperimentBudget, Forecaster
from repro.serving import (
    ForecastService,
    NetworkServer,
    RemoteForecastService,
    WorkerCrashedError,
    WorkerPool,
)

pytestmark = pytest.mark.network

BUDGET = ExperimentBudget(window=8, epochs=1, train_limit=4, seed=0)
DATA = DataSpec(city="nyc", rows=4, cols=4, num_days=60, seed=0)
DATASET = DATA.load()


@pytest.fixture(scope="module")
def forecaster():
    return Forecaster("ST-HSL", budget=BUDGET, hidden=6).fit(DATASET)


@pytest.fixture(scope="module")
def artifact(tmp_path_factory, forecaster):
    path = tmp_path_factory.mktemp("worker_artifacts") / "sthsl.npz"
    forecaster.save(path)
    return str(path)


@pytest.fixture()
def pool(artifact):
    with WorkerPool(artifact, workers=2, job_timeout=60.0) as p:
        yield p


def window(t=20):
    return DATASET.tensor[:, t : t + 8, :]


def kill_worker(pool, index=0):
    """SIGKILL one worker process and wait for the OS to reap it."""
    victim = pool._pool[index].process
    os.kill(victim.pid, signal.SIGKILL)
    victim.join(5)
    return victim


class TestPredictJobs:
    def test_pool_prediction_is_bitwise_equal_to_local(self, forecaster, pool):
        local = forecaster.predict(window())
        assert np.array_equal(pool.predict(window()), local)

    def test_pool_accepts_stacked_batches(self, forecaster, pool):
        stacked = np.stack([window(10), window(30)])
        local = forecaster.predict(stacked)
        got = pool.predict(stacked)
        assert got.shape == local.shape
        assert np.array_equal(got, local)

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_pool_computes_in_its_served_dtype(self, artifact, start_method):
        reference = Forecaster.load(artifact, served_dtype="float32").predict(window())
        assert not np.array_equal(reference, Forecaster.load(artifact).predict(window()))
        with WorkerPool(
            artifact, served_dtype="float32", workers=1, start_method=start_method, job_timeout=60.0
        ) as float32_pool:
            assert np.array_equal(float32_pool.predict(window()), reference)

    def test_ping_round_trips(self, pool):
        assert pool.ping() == "pong"

    def test_pool_is_reusable_across_many_jobs(self, forecaster, pool):
        local = forecaster.predict(window())
        for _ in range(6):
            assert np.array_equal(pool.predict(window()), local)

    def test_worker_side_errors_surface_typed(self, pool):
        with pytest.raises(Exception) as excinfo:
            pool.predict(np.ones((2, 2)))  # bad rank: the worker's error rides back
        assert not isinstance(excinfo.value, WorkerCrashedError), (
            "a model-side validation error must not masquerade as a crash"
        )


class TestCrashRecovery:
    def test_sigkill_is_detected_respawned_and_typed(self, forecaster, pool):
        local = forecaster.predict(window())
        assert np.array_equal(pool.predict(window()), local)
        kill_worker(pool, 0)
        crashes = 0
        for _ in range(4):
            try:
                assert np.array_equal(pool.predict(window()), local)
            except WorkerCrashedError:
                crashes += 1
        assert crashes >= 1, "the murdered worker's job must fail typed"
        assert pool.deaths >= 1
        # After respawn the pool serves at full strength again.
        for _ in range(4):
            assert np.array_equal(pool.predict(window()), local)

    def test_service_over_pool_drops_zero_requests_on_sigkill(self, forecaster, pool):
        local = forecaster.predict(window())
        with ForecastService(pool, workers=2) as service:
            # Kill worker 0 — the first one the checkout loop offers — so
            # the corpse is guaranteed to receive a job.
            kill_worker(pool, 0)
            # Every request must complete correctly: the service's
            # per-request isolation retries the crashed job against the
            # respawned worker.
            results = [service.predict(window(), timeout=60) for _ in range(8)]
        assert all(np.array_equal(r, local) for r in results)
        assert pool.deaths >= 1

    def test_stopped_pool_raises_typed(self, artifact):
        pool = WorkerPool(artifact, workers=1).start()
        pool.stop()
        with pytest.raises(WorkerCrashedError, match="stopped"):
            pool.predict(window())
        pool.stop()  # idempotent


class TestEndToEndProcessServing:
    def test_remote_over_service_over_process_workers(self, forecaster, pool):
        # The full PR-9 stack: HTTP edge -> service -> process workers.
        local = forecaster.predict(window())
        with ForecastService(pool, max_batch=1) as service:
            with NetworkServer(service, port=0, model="proc") as server:
                client = RemoteForecastService(server.url)
                try:
                    over_wire = client.predict(window())
                    assert np.array_equal(over_wire, local), (
                        "HTTP + pickle + process hop must preserve every bit"
                    )
                    assert client.health()["model"] == "proc"
                finally:
                    client.stop()
