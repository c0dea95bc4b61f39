"""Deterministic fault injection for the serving stack.

The resilience layer is only trustworthy if its failure paths are
*driven*, not just written.  This module provides the chaos harness: a
seeded :class:`FaultPlan` that components invoke through explicit hook
points, plus :func:`corrupt_artifact` for on-disk checkpoint damage.

Hook sites (each component takes a ``fault_hook`` constructor argument
and calls it with the site name at the matching moment):

========================  =====================================================
site                      fired
========================  =====================================================
``"pool.load"``           before :class:`~repro.serving.ModelPool` loads an
                          artifact (raise → load failure → retry/quarantine)
``"service.predict"``     inside the service's backend predict wrapper (raise →
                          per-request isolation / fallback; delay → latency
                          spike)
``"service.worker"``      once per drained batch, *outside* request isolation
                          (raise → the worker thread dies mid-batch)
``"net.accept"``          per accepted connection, before the first read
                          (raise → the connection is dropped unanswered —
                          a client that vanished)
``"net.read"``            before each request-body read on the edge (raise →
                          mid-request disconnect; delay → a slow-loris client
                          eating the read budget → 408)
``"workers.dispatch"``    before a :class:`~repro.serving.WorkerPool` job is
                          shipped to a worker process (raise → dispatch
                          failure; delay → queueing latency)
========================  =====================================================

Faults are matched by deterministic per-site call counts (and a seeded
RNG for ``rate`` rules), so a chaos test replays identically every run.
The invariant the suite locks: under any plan, every submitted request
terminates — a result, a degraded result, or a typed
:class:`~repro.serving.ServingError` — and the service stays
serviceable afterwards.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["FaultPlan", "InjectedFault", "corrupt_artifact"]


class InjectedFault(RuntimeError):
    """Default exception raised by a :class:`FaultPlan` rule.

    Deliberately *not* a :class:`~repro.serving.ServingError`: injected
    faults simulate raw component failures, so tests can assert the
    serving stack wraps them into the typed taxonomy::

        plan = FaultPlan().fail("service.worker", nth=1)
        # the waiter sees WorkerCrashedError, with InjectedFault chained
    """


@dataclass
class _Rule:
    site: str
    action: str  # "raise" | "delay"
    nth: int | None = None
    every: int | None = None
    rate: float | None = None
    times: int | None = None
    error: object = None  # instance, type, or zero-arg callable
    seconds: float = 0.0
    fired: int = 0
    rng: random.Random = field(default_factory=random.Random)

    def matches(self, count: int) -> bool:
        if self.times is not None and self.fired >= self.times:
            return False
        if self.nth is not None:
            window = self.times if self.times is not None else 1
            return self.nth <= count < self.nth + window
        if self.every is not None:
            return count % self.every == 0
        if self.rate is not None:
            return self.rng.random() < self.rate
        return True  # unconditional (bounded only by times)

    def build_error(self, site: str, count: int) -> BaseException:
        template = self.error
        if template is None:
            return InjectedFault(f"injected fault at {site!r} (call {count})")
        if isinstance(template, BaseException):
            # Never raise the stored instance: concurrent raises would
            # share (and mutate) one __traceback__.  Rebuild from args.
            try:
                clone = type(template)(*template.args)
            except Exception:  # noqa: BLE001 - exotic constructor
                return template
            return clone
        return template()  # type or factory


class FaultPlan:
    """A seeded, deterministic schedule of faults to inject.

    Build a plan by chaining rules, then pass it as the ``fault_hook``
    of any serving component::

        plan = (
            FaultPlan(seed=0)
            .fail("pool.load", nth=1, times=2, error=OSError("disk glitch"))
            .delay("service.predict", 0.050, nth=3)
            .fail("service.worker", nth=2)
        )
        pool = ModelPool(capacity=2, fault_hook=plan)
        service = ForecastService(backend, fault_hook=plan)

    Rule selectors (all optional, combined per rule):

    * ``nth`` — fire on the nth call to the site (1-based); with
      ``times=k`` the fault covers calls ``nth .. nth+k-1``.
    * ``every`` — fire on every ``every``-th call.
    * ``rate`` — fire with probability ``rate`` per call, drawn from the
      plan's seeded RNG (deterministic given the call sequence).
    * ``times`` — total fire budget for the rule.

    The plan records every call and every injection; ``calls(site)`` and
    :meth:`injected` let tests assert exactly what happened.  All
    bookkeeping is lock-protected, so one plan may be wired through
    several components and threads at once.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._rules: list[_Rule] = []
        self._lock = threading.Lock()
        self._calls: dict[str, int] = {}
        self._injected: list[tuple[str, str, int]] = []

    # ------------------------------------------------------------------
    # Building the plan
    # ------------------------------------------------------------------
    def fail(
        self,
        site: str,
        *,
        nth: int | None = None,
        every: int | None = None,
        rate: float | None = None,
        times: int | None = None,
        error=None,
    ) -> "FaultPlan":
        """Add a raise rule for ``site``; returns ``self`` for chaining.

        ``error`` may be an exception instance (re-constructed per raise
        so no traceback is shared), an exception type, or a zero-arg
        factory; default :class:`InjectedFault`.
        """
        self._add(_Rule(site=site, action="raise", nth=nth, every=every,
                        rate=rate, times=times, error=error))
        return self

    def delay(
        self,
        site: str,
        seconds: float,
        *,
        nth: int | None = None,
        every: int | None = None,
        rate: float | None = None,
        times: int | None = None,
    ) -> "FaultPlan":
        """Add a latency-spike rule: sleep ``seconds`` on matching calls."""
        if seconds < 0:
            raise ValueError(f"delay seconds must be >= 0, got {seconds}")
        self._add(_Rule(site=site, action="delay", nth=nth, every=every,
                        rate=rate, times=times, seconds=seconds))
        return self

    def _add(self, rule: _Rule) -> None:
        if rule.nth is not None and rule.nth < 1:
            raise ValueError(f"nth is 1-based, got {rule.nth}")
        # One RNG per rule, derived from the plan seed and rule order, so
        # rate rules stay deterministic regardless of other rules' draws.
        # Seeding happens under the lock: the rule's index IS len(_rules),
        # and two threads adding concurrently must not derive the same one.
        with self._lock:
            rule.rng = random.Random(self.seed * 1000003 + len(self._rules))
            self._rules.append(rule)

    # ------------------------------------------------------------------
    # The hook
    # ------------------------------------------------------------------
    def __call__(self, site: str, **info) -> None:
        """The fault hook: components call ``plan(site)`` at hook points.

        Delays sleep outside the plan lock; a matching raise rule throws
        its (freshly constructed) exception.  Multiple matching rules
        apply in registration order — delays first as scheduled, and the
        first raise wins.
        """
        with self._lock:
            count = self._calls.get(site, 0) + 1
            self._calls[site] = count
            pending: list[tuple[_Rule, int]] = []
            for rule in self._rules:
                if rule.site == site and rule.matches(count):
                    rule.fired += 1
                    self._injected.append((site, rule.action, count))
                    pending.append((rule, count))
        error: BaseException | None = None
        for rule, at_count in pending:
            if rule.action == "delay":
                time.sleep(rule.seconds)
            elif error is None:
                error = rule.build_error(site, at_count)
        if error is not None:
            raise error

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def calls(self, site: str) -> int:
        """How many times ``site``'s hook has fired (matched or not)."""
        with self._lock:
            return self._calls.get(site, 0)

    def injected(self) -> list[tuple[str, str, int]]:
        """Ledger of applied faults: ``(site, action, call_index)`` tuples."""
        with self._lock:
            return list(self._injected)

    def snapshot(self) -> dict:
        """One consistent view of the plan's state, under a single lock hold.

        Separate ``calls()``/``injected()`` reads can interleave with a
        concurrent hook firing and disagree with each other; tests that
        assert cross-site invariants read one snapshot instead::

            snap = plan.snapshot()
            assert len(snap["injected"]) <= sum(snap["calls"].values())

        Returns defensive copies: ``{"calls": {site: count}, "injected":
        [(site, action, call_index), ...], "fired": (per-rule counts)}``.
        """
        with self._lock:
            return {
                "calls": dict(self._calls),
                "injected": list(self._injected),
                "fired": tuple(rule.fired for rule in self._rules),
            }

    def reset(self) -> None:
        """Zero all call counts, fire budgets and the injection ledger."""
        with self._lock:
            self._calls.clear()
            self._injected.clear()
            for index, rule in enumerate(self._rules):
                rule.fired = 0
                rule.rng = random.Random(self.seed * 1000003 + index)


def corrupt_artifact(path: str | Path, mode: str = "truncate", seed: int = 0) -> Path:
    """Damage a checkpoint artifact on disk so loading it fails.

    Chaos-harness utility for exercising the
    :class:`~repro.serving.ModelPool` quarantine path with *real* loader
    failures rather than injected ones::

        fc.save(path)
        corrupt_artifact(path, mode="garbage")
        pool.get(path)  # raises ArtifactLoadError, quarantines the path

    Modes: ``"truncate"`` keeps only the first half of the file (torn
    write); ``"garbage"`` overwrites the middle third with seeded random
    bytes (bit rot — the zip header survives, the payload does not);
    ``"empty"`` leaves a zero-byte file.  Deterministic given ``seed``.
    """
    path = Path(path)
    data = path.read_bytes()
    if mode == "truncate":
        path.write_bytes(data[: len(data) // 2])
    elif mode == "garbage":
        rng = random.Random(seed)
        start, stop = len(data) // 3, 2 * len(data) // 3
        noise = bytes(rng.randrange(256) for _ in range(stop - start))
        path.write_bytes(data[:start] + noise + data[stop:])
    elif mode == "empty":
        path.write_bytes(b"")
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")
    return path
