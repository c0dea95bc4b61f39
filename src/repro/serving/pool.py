"""Model pool: lazy artifact loading with an LRU policy.

A serving process cannot afford to ``Forecaster.load`` on every request,
nor to keep every checkpoint it has ever seen in memory.  The
:class:`ModelPool` sits between the two: artifacts load lazily on first
use, stay resident while hot, and the least-recently-used entry is
evicted when the pool exceeds its capacity.

Buffer arenas are recycled *across* pool entries: when a model is
evicted, its inference :class:`~repro.nn.BufferArena` (the byte slabs
built up over its predict calls) is detached and handed to the next
model loaded.  Slabs carry no shape or dtype, so they serve the next
model whatever its geometry, with no allocator warm-up up to the bytes
they hold.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..api import Forecaster
from ..api.artifacts import check_served_dtype
from ..api.registry import REGISTRY, ModelRegistry
from .errors import ArtifactLoadError
from .resilience import RetryPolicy

__all__ = ["ModelPool", "PoolStats"]


@dataclass(frozen=True)
class PoolStats:
    """Counters describing a pool's behaviour since construction.

    ``hits``/``loads`` tell whether the capacity fits the working set
    (a high load count means thrashing); ``evictions`` counts models
    dropped by the LRU policy; ``arena_handoffs`` counts evicted buffer
    arenas recycled into newly loaded models; ``load_failures`` counts
    loads that failed after any retries, and ``quarantined`` lists the
    artifact paths currently cooling down after such a failure.
    Example::

        pool.get(path); pool.get(path)
        assert pool.stats().hits == 1
    """

    size: int
    capacity: int
    loads: int
    hits: int
    evictions: int
    arena_handoffs: int
    load_failures: int = 0
    quarantined: tuple[str, ...] = field(default=())


class ModelPool:
    """LRU cache of loaded :class:`~repro.api.Forecaster` artifacts.

    Usage::

        pool = ModelPool(capacity=2, served_dtype="float32")
        fc = pool.get("nyc.npz")        # loads (in float32 serving mode)
        fc = pool.get("nyc.npz")        # hit — same object, no disk I/O
        pool.get("chicago.npz")
        pool.get("sf.npz")              # evicts the LRU entry, nyc.npz

    ``served_dtype`` is the pool-wide serving policy: the deployment
    operator's choice, applied to every load and *overriding* any
    ``served_dtype`` an artifact's manifest carries (load artifacts
    directly through :meth:`Forecaster.load` to honour per-artifact
    manifest pins instead).  It is ``"float32"``, ``"float64"`` or
    ``None`` (native; anything else raises
    :class:`~repro.api.ArtifactError` here), best-effort per model —
    builders without a dtype knob load at native precision.  All pool
    methods are
    thread-safe, and the returned forecasters' predict paths are too
    (execution state is thread-local and every thread predicts under its
    own per-thread arena), so :class:`~repro.serving.ForecastService`
    worker pools can serve one pool entry from several threads at once.

    Load failures are contained rather than retried per request: an
    optional ``retry`` :class:`~repro.serving.RetryPolicy` absorbs
    transient failures (flaky filesystem, injected chaos), and a path
    whose load still fails is **quarantined** for ``quarantine_cooldown``
    seconds — until the cooldown elapses every ``get`` for it raises
    :class:`~repro.serving.ArtifactLoadError` immediately (the original
    loader error chained as ``__cause__``) without touching the disk, so
    one corrupted checkpoint cannot drive a load retry storm.  After the
    cooldown the next ``get`` probes the load once.
    """

    def __init__(
        self,
        capacity: int = 4,
        *,
        served_dtype: str | None = None,
        registry: ModelRegistry = REGISTRY,
        retry: RetryPolicy | None = None,
        quarantine_cooldown: float = 30.0,
        fault_hook=None,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if quarantine_cooldown < 0:
            raise ValueError(
                f"quarantine_cooldown must be >= 0, got {quarantine_cooldown}"
            )
        self.capacity = capacity
        self.served_dtype = check_served_dtype(served_dtype)
        self.registry = registry
        self.retry = retry
        self.quarantine_cooldown = quarantine_cooldown
        self._fault_hook = fault_hook
        self._entries: dict[str, Forecaster] = {}  # insertion order = LRU order
        self._quarantine: dict[str, tuple[float, BaseException]] = {}
        self._spare_arenas: list = []
        self._lock = threading.RLock()
        self._loads = 0
        self._hits = 0
        self._evictions = 0
        self._arena_handoffs = 0
        self._load_failures = 0

    @staticmethod
    def _key(path: str | Path) -> str:
        return str(Path(path).resolve())

    def _fault(self, site: str, **info) -> None:
        if self._fault_hook is not None:
            self._fault_hook(site, **info)

    # ------------------------------------------------------------------
    # Lookup / loading
    # ------------------------------------------------------------------
    def get(self, path: str | Path) -> Forecaster:
        """The loaded forecaster for ``path``, loading (and possibly
        evicting) on miss.

        The returned object stays valid even if later evicted from the
        pool — eviction only drops the pool's reference (and harvests the
        model's buffer arena for reuse).

        Raises :class:`~repro.serving.ArtifactLoadError` when the load
        fails (after any configured retries) or while the path is still
        quarantined from an earlier failure.
        """
        key = self._key(path)
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is not None:
                self._entries[key] = entry  # re-insert = move to MRU
                self._hits += 1
                return entry
            until = self._quarantine.get(key)
            if until is not None:
                expiry, cause = until
                if time.monotonic() < expiry:
                    error = ArtifactLoadError(
                        f"artifact {key} is quarantined after a load failure "
                        f"(retry in {expiry - time.monotonic():.1f}s)"
                    )
                    error.__cause__ = cause
                    raise error
                del self._quarantine[key]  # cooldown over: probe the load

            def load() -> Forecaster:
                self._fault("pool.load", path=key)
                return Forecaster.load(
                    path, registry=self.registry, served_dtype=self.served_dtype
                )

            try:
                if self.retry is not None:
                    forecaster = self.retry.call(load)
                else:
                    forecaster = load()
            except Exception as exc:
                self._load_failures += 1
                self._quarantine[key] = (
                    time.monotonic() + self.quarantine_cooldown,
                    exc,
                )
                raise ArtifactLoadError(
                    f"failed to load artifact {key}: {exc}"
                ) from exc
            if self._spare_arenas:
                forecaster.model.adopt_arena(self._spare_arenas.pop())
                self._arena_handoffs += 1
            self._loads += 1
            self._entries[key] = forecaster
            self._evict_to_capacity_locked()
            return forecaster

    def _evict_to_capacity_locked(self) -> None:
        # LRU = insertion order; the victim is the oldest entry.
        while len(self._entries) > self.capacity:
            evicted = self._entries.pop(next(iter(self._entries)))
            arena = evicted.model.release_arena()
            if arena is not None:
                self._spare_arenas.append(arena)
            self._evictions += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __contains__(self, path: str | Path) -> bool:
        with self._lock:
            return self._key(path) in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> PoolStats:
        """A consistent snapshot of the pool counters."""
        with self._lock:
            now = time.monotonic()
            cooling = tuple(
                sorted(
                    key
                    for key, (expiry, _) in self._quarantine.items()
                    if now < expiry
                )
            )
            return PoolStats(
                size=len(self._entries),
                capacity=self.capacity,
                loads=self._loads,
                hits=self._hits,
                evictions=self._evictions,
                arena_handoffs=self._arena_handoffs,
                load_failures=self._load_failures,
                quarantined=cooling,
            )
