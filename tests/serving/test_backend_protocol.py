"""One parametrized conformance suite for every ForecastBackend.

Before this suite, "a forecast service" was an informal duck type each
implementation re-invented; now the contract is
:class:`~repro.serving.ForecastBackend` and every implementation runs
the **same** tests:

* ``local`` — :class:`~repro.serving.ForecastService` over the model
* ``sharded`` — a service over a :class:`~repro.serving.ShardRouter`
* ``process`` — a service over a :class:`~repro.serving.WorkerPool`
  of forked worker processes
* ``remote`` — :class:`~repro.serving.RemoteForecastService` over a
  live :class:`~repro.serving.NetworkServer` on an ephemeral port

Each backend must satisfy the protocol structurally *and*
behaviourally: submit→handle→wait, blocking predict, ordered
predict_many, ServiceStats snapshots, typed errors after stop, and
idempotent shutdown.  The single-artifact backends (local, process,
remote) must additionally agree **bitwise** on every prediction.

Select with ``-m network`` (the remote/process params need sockets and
subprocesses).
"""

import numpy as np
import pytest

from repro.api import DataSpec, ExperimentBudget, Forecaster
from repro.serving import (
    ForecastBackend,
    ForecastService,
    NetworkServer,
    RemoteForecastService,
    ServiceStats,
    ServingError,
    ShardRouter,
    WorkerPool,
    train_shards,
)

pytestmark = pytest.mark.network

BUDGET = ExperimentBudget(window=8, epochs=1, train_limit=4, seed=0)
DATASET = DataSpec(city="nyc", rows=4, cols=4, num_days=60, seed=0).load()

BACKENDS = ("local", "sharded", "process", "remote")


@pytest.fixture(scope="module")
def forecaster():
    return Forecaster("ST-HSL", budget=BUDGET, hidden=6).fit(DATASET)


@pytest.fixture(scope="module")
def artifact(tmp_path_factory, forecaster):
    path = tmp_path_factory.mktemp("backend_artifacts") / "sthsl.npz"
    forecaster.save(path)
    return str(path)


@pytest.fixture(scope="module")
def shard_artifacts(tmp_path_factory):
    directory = tmp_path_factory.mktemp("backend_shards")
    paths = []
    for i, fc in enumerate(train_shards("HA", DATASET, num_shards=2, budget=BUDGET)):
        path = directory / f"shard{i}.npz"
        fc.save(path, shard=fc.shard)
        paths.append(str(path))
    return paths


@pytest.fixture(scope="module")
def shared_server(forecaster):
    # One live server reused by every remote-param test (each test gets
    # its own client); max_batch=1 pins batch composition for bitwise
    # comparisons.
    with ForecastService(forecaster, max_batch=1) as service:
        with NetworkServer(service, port=0, model="conformance") as server:
            yield server


@pytest.fixture(params=BACKENDS)
def backend(request, forecaster, artifact, shard_artifacts, shared_server):
    """A started ForecastBackend of the parametrized flavour."""
    if request.param == "local":
        with ForecastService(forecaster, max_batch=1) as service:
            yield service
    elif request.param == "sharded":
        router = ShardRouter.from_artifacts(shard_artifacts)
        with ForecastService(router, max_batch=1) as service:
            yield service
    elif request.param == "process":
        with WorkerPool(artifact, workers=1, job_timeout=60.0) as pool:
            with ForecastService(pool, max_batch=1) as service:
                yield service
    else:  # remote
        client = RemoteForecastService(shared_server.url)
        yield client
        client.stop()


def window(t=20):
    return DATASET.tensor[:, t : t + 8, :]


EXPECTED_SHAPE = (DATASET.tensor.shape[0], DATASET.tensor.shape[2])


class TestProtocolConformance:
    def test_satisfies_the_protocol_structurally(self, backend):
        assert isinstance(backend, ForecastBackend)

    def test_submit_returns_a_waitable_handle(self, backend):
        handle = backend.submit(window())
        result = handle.wait(60)
        assert handle.done()
        assert result.shape == EXPECTED_SHAPE
        assert np.isfinite(result).all()
        assert handle.degraded is False
        assert handle.tier == 0

    def test_predict_equals_submit_wait(self, backend):
        via_predict = backend.predict(window(), timeout=60)
        via_handle = backend.submit(window()).wait(60)
        assert np.array_equal(via_predict, via_handle)

    def test_predict_many_preserves_order(self, backend):
        times = (10, 20, 30)
        singles = [backend.predict(window(t), timeout=60) for t in times]
        many = backend.predict_many([window(t) for t in times], timeout=60)
        assert len(many) == len(times)
        for got, expected in zip(many, singles):
            assert np.array_equal(got, expected)

    def test_rejects_malformed_windows(self, backend):
        with pytest.raises((ValueError, ServingError)):
            backend.predict(np.ones((2, 2)))  # wrong rank

    def test_stats_is_a_service_stats_snapshot(self, backend):
        backend.predict(window(), timeout=60)
        stats = backend.stats()
        assert isinstance(stats, ServiceStats)
        assert stats.requests >= 1
        assert stats.latency_p95 >= 0.0
        # And the snapshot is JSON-safe for /statz.
        assert isinstance(stats.to_dict()["requests"], int)


class TestShutdownSemantics:
    @pytest.fixture()
    def stoppable(self, request, forecaster, artifact, shard_artifacts, shared_server):
        # Backends the test is allowed to stop (module-shared fixtures
        # must survive, so each flavour is built fresh here).
        flavour = request.param
        if flavour == "local":
            yield ForecastService(forecaster, max_batch=1).start()
        elif flavour == "sharded":
            yield ForecastService(
                ShardRouter.from_artifacts(shard_artifacts), max_batch=1
            ).start()
        elif flavour == "process":
            pool = WorkerPool(artifact, workers=1, job_timeout=60.0).start()
            yield ForecastService(pool, max_batch=1).start()
            pool.stop()
        else:
            yield RemoteForecastService(shared_server.url)

    @pytest.mark.parametrize("stoppable", BACKENDS, indirect=True)
    def test_stop_is_idempotent_and_submissions_fail_typed(self, stoppable):
        assert stoppable.predict(window(), timeout=60).shape == EXPECTED_SHAPE
        stoppable.stop()
        stoppable.stop()  # idempotent
        with pytest.raises(ServingError):
            stoppable.submit(window())


class TestCrossImplementationFidelity:
    def test_single_artifact_backends_agree_bitwise(
        self, forecaster, artifact, shared_server
    ):
        # local, process, and remote all serve the same artifact at
        # max_batch=1 — every bit of every prediction must agree.
        with ForecastService(forecaster, max_batch=1) as local:
            with WorkerPool(artifact, workers=1, job_timeout=60.0) as pool:
                with ForecastService(pool, max_batch=1) as process:
                    remote = RemoteForecastService(shared_server.url)
                    try:
                        for t in (10, 25, 40):
                            reference = local.predict(window(t), timeout=60)
                            assert np.array_equal(
                                process.predict(window(t), timeout=60), reference
                            ), f"process backend diverged at t={t}"
                            assert np.array_equal(
                                remote.predict(window(t)), reference
                            ), f"remote backend diverged at t={t}"
                    finally:
                        remote.stop()
