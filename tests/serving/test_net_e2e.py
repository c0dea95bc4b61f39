"""E2E suite for the network edge: a real server, real sockets.

Every test here starts an actual :class:`~repro.serving.NetworkServer`
on an ephemeral localhost port and talks to it over real HTTP — no
mocked transport — locking the properties the edge promises:

* remote predictions are **bitwise-equal** to in-process ones (the
  ``repr(float)`` JSON round trip is exact);
* concurrent clients all get correct answers;
* a saturated admission queue answers **429** with a typed
  ``overloaded`` error document, a tenant over its token-bucket budget
  answers **429** with ``rate_limited``;
* deadlines propagate into the service's shed-before-compute path and
  surface client-side as :class:`~repro.serving.DeadlineExceededError`;
* malformed bodies come back as typed ``repro.rpc/v1`` error JSON.

Select with ``-m network``; every test runs under the SIGALRM watchdog
(see ``conftest.py``), so a hung socket fails loudly instead of wedging
the run.
"""

import http.client
import http.server
import json
import threading
import time

import numpy as np
import pytest

from repro.api import DataSpec, ExperimentBudget, Forecaster
from repro.serving import (
    DeadlineExceededError,
    ForecastBackend,
    ForecastService,
    NetworkServer,
    RateLimitedError,
    RemoteError,
    RemoteForecastService,
    ServiceOverloadedError,
    TokenBucket,
)

pytestmark = pytest.mark.network

BUDGET = ExperimentBudget(window=8, epochs=1, train_limit=4, seed=0)
DATASET = DataSpec(city="nyc", rows=4, cols=4, num_days=60, seed=0).load()


@pytest.fixture(scope="module")
def forecaster():
    return Forecaster("ST-HSL", budget=BUDGET, hidden=6).fit(DATASET)


@pytest.fixture(scope="module")
def service(forecaster):
    with ForecastService(forecaster, max_batch=8) as svc:
        yield svc


@pytest.fixture(scope="module")
def server(service):
    with NetworkServer(service, port=0, model="sthsl-e2e") as srv:
        yield srv


@pytest.fixture(scope="module")
def exact_service(forecaster):
    # max_batch=1 pins the batch composition: every request computes as a
    # batch of one, so results are bitwise-reproducible regardless of
    # arrival timing.  (Coalescing into a batch of k is also deterministic
    # per composition, but *which* requests coalesce depends on timing —
    # and a (4, ...) GEMM may differ from a (1, ...) GEMM by 1 ULP.)
    with ForecastService(forecaster, max_batch=1) as svc:
        yield svc


@pytest.fixture(scope="module")
def exact_server(exact_service):
    with NetworkServer(exact_service, port=0, model="sthsl-exact") as srv:
        yield srv


@pytest.fixture()
def remote(server):
    client = RemoteForecastService(server.url)
    yield client
    client.stop()


def window(t=20):
    return DATASET.tensor[:, t : t + 8, :]


def raw_request(server, method, path, body=None, headers=None):
    """One plain http.client exchange → (status, parsed JSON body)."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class _SlowModel:
    """A backend that takes ``delay`` seconds per batch — saturation fuel.

    ``started`` is set the moment the first batch enters compute, so
    tests can sequence "the worker is busy now" without sleeping.
    """

    def __init__(self, delay):
        self.delay = delay
        self.started = threading.Event()

    def predict(self, stacked):
        self.started.set()
        time.sleep(self.delay)
        return stacked[:, :, -1, :] * 1.0


# ----------------------------------------------------------------------
# Fidelity: the hop must not change a single bit
# ----------------------------------------------------------------------
class TestBitwiseFidelity:
    def test_remote_predict_equals_local_bitwise(self, service, remote):
        local = service.predict(window())
        over_the_wire = remote.predict(window())
        assert over_the_wire.shape == local.shape
        assert np.array_equal(over_the_wire, local), (
            "remote prediction differs from local — the JSON float round "
            "trip must be exact"
        )

    def test_remote_predict_many_is_bitwise_and_ordered(self, exact_service, exact_server):
        windows = [window(t) for t in (10, 20, 30, 40)]
        local = [exact_service.predict(w) for w in windows]
        client = RemoteForecastService(exact_server.url)
        try:
            batched = client.predict_many(windows)
        finally:
            client.stop()
        assert len(batched) == len(local)
        for got, expected in zip(batched, local):
            assert np.array_equal(got, expected)

    def test_submit_handles_mirror_the_local_surface(self, remote):
        handle = remote.submit(window(), deadline=30.0)
        result = handle.wait()
        assert handle.done()
        assert handle.degraded is False and handle.tier == 0
        assert result.shape == (DATASET.tensor.shape[0], DATASET.tensor.shape[2])

    def test_remote_satisfies_the_backend_protocol(self, remote, service):
        assert isinstance(remote, ForecastBackend)
        assert isinstance(service, ForecastBackend)


# ----------------------------------------------------------------------
# Concurrency
# ----------------------------------------------------------------------
class TestConcurrentClients:
    def test_many_threads_many_requests_all_correct(self, exact_service, exact_server):
        expected = {t: exact_service.predict(window(t)) for t in (10, 20, 30)}
        errors, results = [], []
        lock = threading.Lock()

        def client_thread(offset):
            client = RemoteForecastService(exact_server.url)
            try:
                for t in (10, 20, 30):
                    got = client.predict(window(t))
                    with lock:
                        results.append((t, got))
            except Exception as exc:  # noqa: BLE001 - collected for assert
                with lock:
                    errors.append(exc)
            finally:
                client.stop()

        threads = [threading.Thread(target=client_thread, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not errors, errors
        assert len(results) == 12
        for t, got in results:
            assert np.array_equal(got, expected[t])

    def test_pipelined_submits_on_one_client(self, exact_service, exact_server):
        expected = exact_service.predict(window())
        client = RemoteForecastService(exact_server.url)
        try:
            handles = [client.submit(window()) for _ in range(8)]
            outcomes = [handle.wait(60) for handle in handles]
        finally:
            client.stop()
        assert all(np.array_equal(out, expected) for out in outcomes)


# ----------------------------------------------------------------------
# Backpressure: 429 under saturation, 429 under rate limiting
# ----------------------------------------------------------------------
class TestBackpressure:
    def test_queue_saturation_sheds_with_429_overloaded(self):
        with ForecastService(_SlowModel(0.3), max_batch=1, max_queue=2) as svc:
            with NetworkServer(svc, port=0) as srv:
                client = RemoteForecastService(srv.url)
                try:
                    handles = [
                        client.submit(np.ones((2, 3, 2))) for _ in range(12)
                    ]
                    succeeded, overloaded = 0, 0
                    for handle in handles:
                        try:
                            handle.wait(30)
                            succeeded += 1
                        except RateLimitedError:
                            pytest.fail("no rate limit configured — must be overload")
                        except ServiceOverloadedError:
                            overloaded += 1
                    assert succeeded >= 1, "some requests must get through"
                    assert overloaded >= 1, "a 3-deep queue cannot hold 12 requests"
                finally:
                    client.stop()
                assert srv.stats()["rejected"] >= 1

    def test_queue_saturation_is_http_429_on_the_wire(self):
        # Ten raw requests land at once on a 1-deep queue over a 0.3s
        # model: one runs, one queues, the rest must answer HTTP 429 with
        # a typed "overloaded" error document.
        with ForecastService(_SlowModel(0.3), max_batch=1, max_queue=1) as svc:
            with NetworkServer(svc, port=0) as srv:
                body = json.dumps(
                    {"schema": "repro.rpc/v1", "window": np.ones((2, 3, 2)).tolist()}
                )
                outcomes = []
                lock = threading.Lock()

                def probe():
                    status, payload = raw_request(
                        srv, "POST", "/v1/predict", body=body,
                        headers={"Content-Type": "application/json"},
                    )
                    with lock:
                        outcomes.append((status, payload))

                threads = [threading.Thread(target=probe) for _ in range(10)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60)
                statuses = [status for status, _payload in outcomes]
                assert statuses.count(200) >= 1, statuses
                assert statuses.count(429) >= 1, statuses
                for status, payload in outcomes:
                    if status == 429:
                        assert payload["error"]["code"] == "overloaded"

    def test_rate_limit_ceiling_is_typed_and_recovers(self, service):
        with NetworkServer(service, port=0, rate_limit=5.0, rate_burst=2) as srv:
            client = RemoteForecastService(srv.url, tenant="greedy")
            try:
                outcomes = []
                for _ in range(6):  # burst of 2 allowed, the rest throttled
                    try:
                        client.predict(window())
                        outcomes.append("ok")
                    except RateLimitedError as exc:
                        # The refinement is also the base backpressure type.
                        assert isinstance(exc, ServiceOverloadedError)
                        outcomes.append("limited")
                assert outcomes.count("ok") >= 1
                assert outcomes.count("limited") >= 1, outcomes
                assert srv.stats()["rate_limited"] >= 1
                time.sleep(0.5)  # bucket refills at 5/s
                assert client.predict(window()) is not None
            finally:
                client.stop()

    def test_rate_limit_is_per_tenant(self, service):
        with NetworkServer(service, port=0, rate_limit=2.0, rate_burst=1) as srv:
            greedy = RemoteForecastService(srv.url, tenant="greedy")
            polite = RemoteForecastService(srv.url, tenant="polite")
            try:
                greedy.predict(window())  # spends greedy's only token
                with pytest.raises(RateLimitedError):
                    greedy.predict(window())
                # A different tenant still flows.
                assert polite.predict(window()) is not None
            finally:
                greedy.stop()
                polite.stop()

    def test_token_bucket_refills_deterministically(self):
        clock = [0.0]
        bucket = TokenBucket(rate=10.0, burst=3, clock=lambda: clock[0])
        assert [bucket.allow() for _ in range(4)] == [True, True, True, False]
        clock[0] += 0.2  # 2 tokens back
        assert [bucket.allow() for _ in range(3)] == [True, True, False]
        assert bucket.denied == 2


# ----------------------------------------------------------------------
# Deadline propagation
# ----------------------------------------------------------------------
class TestDeadlines:
    def test_expired_deadline_sheds_and_raises_typed_504(self):
        model = _SlowModel(0.4)
        with ForecastService(model, max_batch=1) as svc:
            with NetworkServer(svc, port=0) as srv:
                client = RemoteForecastService(srv.url)
                try:
                    # Occupy the single worker, then queue a doomed request:
                    # by the time it drains, its 100ms budget is gone, so the
                    # worker sheds it *before* compute.
                    slow = client.submit(np.ones((2, 3, 2)))
                    assert model.started.wait(10), "slow request never started"
                    with pytest.raises(DeadlineExceededError):
                        client.predict(np.ones((2, 3, 2)), deadline=0.1)
                    slow.wait(30)
                finally:
                    client.stop()
                assert srv.service.stats().shed >= 1

    def test_generous_deadline_succeeds(self, service, remote):
        local = service.predict(window())
        assert np.array_equal(remote.predict(window(), deadline=30.0), local)


# ----------------------------------------------------------------------
# Protocol errors on the wire
# ----------------------------------------------------------------------
class TestWireErrors:
    def test_malformed_json_body_is_typed_400(self, server):
        status, payload = raw_request(
            server, "POST", "/v1/predict", body=b"{definitely not json",
        )
        assert status == 400
        assert payload["schema"] == "repro.rpc/v1"
        assert payload["error"]["code"] == "bad_request"
        assert "JSON" in payload["error"]["message"]

    def test_unknown_field_is_typed_400(self, server):
        body = json.dumps(
            {"schema": "repro.rpc/v1", "window": window().tolist(), "debug": True}
        )
        status, payload = raw_request(server, "POST", "/v1/predict", body=body)
        assert status == 400
        assert payload["error"]["code"] == "bad_request"
        assert "unknown fields" in payload["error"]["message"]

    def test_wrong_schema_version_is_typed_400(self, server):
        body = json.dumps({"schema": "repro.rpc/v99", "window": window().tolist()})
        status, payload = raw_request(server, "POST", "/v1/predict", body=body)
        assert status == 400
        assert "unsupported" in payload["error"]["message"]

    def test_unknown_endpoint_is_404(self, server):
        status, payload = raw_request(server, "GET", "/v2/predict")
        assert status == 404
        assert payload["error"]["code"] == "bad_request"

    def test_wrong_method_is_405(self, server):
        status, payload = raw_request(server, "GET", "/v1/predict")
        assert status == 405
        assert "expects POST" in payload["error"]["message"]

    def test_bad_window_shape_is_typed_400(self, server):
        body = json.dumps({"schema": "repro.rpc/v1", "window": [[1.0, 2.0]]})
        status, payload = raw_request(server, "POST", "/v1/predict", body=body)
        assert status == 400
        assert "(regions, window, categories)" in payload["error"]["message"]

    @pytest.mark.parametrize(
        "path,body",
        [
            ("/v1/predict", b"[" * 5000 + b"]" * 5000),
            ("/v1/predict", b'{"schema": "repro.rpc/v1", "window": [[[' + b"9" * 400 + b"]]]}"),
            ("/v1/predict_batch",
             b'{"schema": "repro.rpc/v1", "windows": [[[[' + b"9" * 400 + b"]]]]}"),
        ],
        ids=["deep-nesting", "overflow", "batch-overflow"],
    )
    def test_undecodable_body_is_a_client_error(self, server, path, body):
        before = server.stats()
        status, payload = raw_request(server, "POST", path, body=body)
        after = server.stats()
        assert status == 400
        assert payload["error"]["code"] == "bad_request"
        assert after["bad_requests"] == before["bad_requests"] + 1
        assert after["errors"] == before["errors"]


class _FixedReply(http.server.BaseHTTPRequestHandler):
    """Answers every POST with status 200 and the class's ``body``."""

    body = b""

    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(self.body)))
        self.end_headers()
        self.wfile.write(self.body)

    def log_message(self, *args):
        pass


class TestMalformedReplies:
    """The client mirror of the edge's 400s: a 200 reply the client cannot
    decode raises RemoteError, never RecursionError or OverflowError."""

    @pytest.mark.parametrize(
        "body",
        [
            b"[" * 5000 + b"]" * 5000,
            b'{"schema": "repro.rpc/v1", "prediction": [[' + b"9" * 400 + b"]]}",
        ],
        ids=["deep-nesting", "overflow"],
    )
    def test_undecodable_reply_raises_remote_error(self, body):
        handler = type("Reply", (_FixedReply,), {"body": body})
        stub = http.server.HTTPServer(("127.0.0.1", 0), handler)
        thread = threading.Thread(target=stub.serve_forever, daemon=True)
        thread.start()
        client = RemoteForecastService(f"http://127.0.0.1:{stub.server_address[1]}")
        try:
            with pytest.raises(RemoteError):
                client.predict(window(), timeout=30)
        finally:
            client.stop()
            stub.shutdown()
            stub.server_close()
            thread.join(5)
        assert not thread.is_alive()


# ----------------------------------------------------------------------
# Health and stats endpoints
# ----------------------------------------------------------------------
class TestHealthAndStats:
    def test_healthz_reports_running_and_model(self, server, remote):
        health = remote.health()
        assert health["status"] == "ok"
        assert health["running"] is True
        assert health["model"] == "sthsl-e2e"
        assert remote.running is True

    def test_statz_round_trips_service_stats(self, service, remote):
        remote.predict(window())  # ensure at least one request counted
        stats = remote.stats()
        local = service.stats()
        assert stats.requests == local.requests
        assert stats.batches == local.batches

    def test_statz_carries_edge_counters(self, remote):
        raw = remote.stats_raw()
        edge = raw["edge"]
        assert edge["requests"] >= 1
        assert edge["connections"] >= 1
        assert set(edge) >= {
            "predictions", "bad_requests", "rate_limited", "rejected",
            "read_timeouts", "disconnects", "errors", "tenants",
        }
