"""``repro.serving`` — the forecast serving layer on top of ``repro.api``.

Two composable pieces turn saved checkpoint artifacts into a service
that absorbs concurrent traffic:

* :class:`ModelPool` — lazy artifact loading with an LRU + pin policy
  and buffer-arena recycling across entries, so a bounded set of hot
  models stays resident and model swaps skip allocator warm-up.
* :class:`ForecastService` — a thread-safe frontend that coalesces
  concurrent predict requests into cross-request micro-batches through
  the model's graph-free ``predict_batch`` fast path, drained by a pool
  of ``workers=N`` threads.  The no-grad/arena/dtype execution state is
  thread-local (:class:`repro.nn.ExecutionContext`), so parallel workers
  return exactly the sequential answers; on one core, keep the default
  single worker and let micro-batching do the work.

On top sits the fault-tolerance layer: per-request deadlines
(:class:`Deadline`), a bounded admission queue, :class:`RetryPolicy`
backoff for transient failures, per-model :class:`CircuitBreaker`
fail-fast, and a :class:`FallbackChain` that degrades to cheaper
baseline tiers instead of failing outright.  Every failure surfaces as
a typed :class:`ServingError` subclass, and the whole stack is
chaos-testable through the deterministic :class:`FaultPlan` harness.
See ``docs/serving.md`` ("Failure model and degradation ladder").

The **network edge** carries all of it across the process boundary:
:class:`NetworkServer` is an asyncio HTTP frontend speaking the
versioned ``repro.rpc/v1`` JSON schema (:mod:`repro.serving.rpc`) with
per-tenant :class:`TokenBucket` rate limiting and deadline propagation;
:class:`RemoteForecastService` is the client SDK that satisfies the
same :class:`ForecastBackend` protocol as the local service (results
bitwise-equal across the hop); and :class:`WorkerPool` runs forecasts
on pre-forked shared-nothing worker *processes*, crash-respawned under
the same :class:`WorkerCrashedError` taxonomy.  See ``docs/serving.md``
("Network edge")::

    with NetworkServer(service, port=0, rate_limit=500.0) as server:
        remote = RemoteForecastService(server.url)
        counts = remote.predict(history, deadline=2.0)

Usage
-----

Serve one artifact to concurrent clients::

    from repro.serving import ForecastService, ModelPool

    pool = ModelPool(capacity=4, served_dtype="float32")
    with ForecastService(pool.get("sthsl.npz"), max_batch=8, workers=2) as service:
        counts = service.predict(history)        # from any thread
    print(service.stats().to_dict())             # req/s, batch size, latency

See ``docs/serving.md`` for the request lifecycle, micro-batching
semantics and the artifact v2 schema this layer relies on.
"""

from . import rpc
from .backend import ForecastBackend
from .errors import (
    ArtifactLoadError,
    BadRequestError,
    CircuitOpenError,
    DeadlineExceededError,
    RateLimitedError,
    RemoteError,
    ServiceOverloadedError,
    ServiceStoppedError,
    ServingError,
    WorkerCrashedError,
)
from .faultinject import FaultPlan, InjectedFault, corrupt_artifact
from .net import NetworkServer, TokenBucket
from .pool import ModelPool, PoolStats
from .remote import RemoteForecastService
from .resilience import (
    CircuitBreaker,
    Deadline,
    FallbackChain,
    RetryPolicy,
    build_fallback_tier,
)
from .rpc import RPC_SCHEMA
from .service import ForecastService, ServiceStats
from .workers import WorkerPool

__all__ = [
    "ModelPool",
    "PoolStats",
    "ForecastService",
    "ServiceStats",
    # network edge
    "ForecastBackend",
    "NetworkServer",
    "TokenBucket",
    "RemoteForecastService",
    "WorkerPool",
    "RPC_SCHEMA",
    "rpc",
    # resilience primitives
    "Deadline",
    "RetryPolicy",
    "CircuitBreaker",
    "FallbackChain",
    "build_fallback_tier",
    # fault injection harness
    "FaultPlan",
    "InjectedFault",
    "corrupt_artifact",
    # typed exception taxonomy
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
