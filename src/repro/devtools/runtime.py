"""Runtime lock checker: acquisition-order and hold-time instrumentation.

The static :mod:`repro.devtools.lint` layer proves writes happen under
*a* lock; it cannot prove that two locks are always taken in the same
order, or that nothing camps on a lock while doing slow work.  Those
properties only show up at runtime — so this module wraps the locks and
watches.

:class:`LockMonitor` hands out :class:`MonitoredLock` /
:class:`MonitoredCondition` wrappers that behave exactly like the
primitives they wrap while recording, per thread, which locks were held
at the moment each lock was acquired.  From that record it derives:

* **lock-order inversions** — thread A acquired ``x`` then ``y`` while
  thread B (at any point in the run) acquired ``y`` then ``x``.  The
  classic deadlock precondition, detected even when the run happened not
  to interleave fatally.
* **long holds** — a lock held longer than a threshold, the signature of
  I/O or compute inside a critical section.

The chaos/concurrency suites activate this via a conftest fixture that
calls :func:`instrument` on every serving component and asserts
:meth:`LockMonitor.assert_clean` at teardown.

Usage::

    monitor = LockMonitor()
    instrument(service, monitor)       # wraps service's Lock/Condition attrs
    ... run the workload ...
    monitor.assert_clean()             # raises LockOrderError on inversion
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Iterable

__all__ = [
    "LockMonitor",
    "LockOrderError",
    "MonitoredCondition",
    "MonitoredLock",
    "instrument",
]

_LOCK_TYPES = (type(threading.Lock()), type(threading.RLock()))


class LockOrderError(AssertionError):
    """Raised by :meth:`LockMonitor.assert_clean` when the recorded run
    contains a lock-order inversion (or, when a threshold is given, a
    long-held lock).  Subclasses ``AssertionError`` so pytest renders it
    as a plain test failure with the offending lock pairs in the message.

    Example::

        try:
            monitor.assert_clean()
        except LockOrderError as err:
            print(err)   # "lock-order inversion: Pool._lock <-> Service._lock"
    """


class LockMonitor:
    """Records lock acquisition order across threads and reports hazards.

    One monitor observes any number of wrapped locks.  All bookkeeping is
    guarded by a private internal lock, so wrapped locks may be used from
    any thread.  Held-lock stacks are tracked per thread; edges are
    global to the run.

    Example::

        monitor = LockMonitor()
        a = monitor.wrap(threading.Lock(), "a")
        b = monitor.wrap(threading.Lock(), "b")
        with a:
            with b:
                pass                      # records edge a -> b
        monitor.assert_clean()            # fine: no opposite edge
    """

    def __init__(self) -> None:
        self._meta = threading.Lock()
        # (first, second) -> number of times `second` was acquired while
        # the same thread held `first`.
        self._edges: dict[tuple[str, str], int] = {}
        # thread ident -> stack of lock names currently held by it.
        self._held: dict[int, list[str]] = {}
        # completed (name, seconds-held) records.
        self._holds: list[tuple[str, float]] = []

    def wrap(self, lock: Any, name: str) -> "MonitoredLock":
        """Wrap a ``threading.Lock``/``RLock`` in a :class:`MonitoredLock`
        reporting to this monitor under ``name``.  The wrapper delegates
        every operation to the original lock, so already-shared references
        to the bare lock keep working (but go unobserved)."""
        return MonitoredLock(self, name, lock)

    def wrap_condition(self, cond: threading.Condition, name: str) -> "MonitoredCondition":
        """Wrap a ``threading.Condition`` in a :class:`MonitoredCondition`
        reporting to this monitor under ``name``.  ``wait()`` is modelled
        as release-then-reacquire, matching Condition semantics, so a
        worker parked in ``wait()`` never shows up as a long hold."""
        return MonitoredCondition(self, name, cond)

    # -- recording hooks (called by the wrappers) -----------------------

    def _note_acquired(self, name: str) -> None:
        ident = threading.get_ident()
        with self._meta:
            stack = self._held.setdefault(ident, [])
            if name not in stack:  # reentrant re-acquire adds no new edge
                for held in stack:
                    key = (held, name)
                    self._edges[key] = self._edges.get(key, 0) + 1
            stack.append(name)

    def _note_released(self, name: str, held_for: float) -> None:
        ident = threading.get_ident()
        with self._meta:
            stack = self._held.get(ident, [])
            # release the innermost matching acquisition
            for i in range(len(stack) - 1, -1, -1):
                if stack[i] == name:
                    del stack[i]
                    break
            self._holds.append((name, held_for))

    # -- reports --------------------------------------------------------

    def inversions(self) -> list[tuple[str, str]]:
        """Return the lock pairs acquired in both orders, sorted, each
        pair reported once as ``(a, b)`` with ``a < b``.  An inversion is
        a deadlock precondition: two threads converging on the pair from
        opposite sides can block forever."""
        with self._meta:
            edges = set(self._edges)
        found = {
            tuple(sorted(pair))
            for pair in edges
            if pair[0] != pair[1] and (pair[1], pair[0]) in edges
        }
        return sorted(found)  # type: ignore[arg-type]

    def long_holds(self, threshold: float = 0.25) -> list[tuple[str, float]]:
        """Return ``(name, seconds)`` records for completed holds at or
        above ``threshold`` seconds, longest first.  Long holds are the
        signature of I/O or heavy compute inside a critical section and
        the usual cause of convoy latency in the serving path."""
        with self._meta:
            records = list(self._holds)
        return sorted(
            (r for r in records if r[1] >= threshold),
            key=lambda r: r[1],
            reverse=True,
        )

    def edges(self) -> dict[tuple[str, str], int]:
        """Return a copy of the acquisition-order edge counts: the key
        ``(a, b)`` maps to how many times some thread acquired ``b``
        while already holding ``a``.  Useful for debugging a reported
        inversion back to the code paths that produced each direction."""
        with self._meta:
            return dict(self._edges)

    def reset(self) -> None:
        """Drop all recorded edges, held-stacks, and hold durations so
        the monitor can observe a fresh workload; existing wrappers keep
        reporting to it."""
        with self._meta:
            self._edges.clear()
            self._held.clear()
            self._holds.clear()

    def assert_clean(self, long_hold_threshold: float | None = None) -> None:
        """Raise :class:`LockOrderError` if the run recorded any
        lock-order inversion; with ``long_hold_threshold`` set, also fail
        on holds at or above that many seconds.  No-op on a clean run, so
        suites can call it unconditionally at teardown."""
        problems: list[str] = []
        for a, b in self.inversions():
            problems.append(f"lock-order inversion: {a} <-> {b}")
        if long_hold_threshold is not None:
            for name, seconds in self.long_holds(long_hold_threshold):
                problems.append(f"long hold: {name} held {seconds:.3f}s")
        if problems:
            raise LockOrderError("; ".join(problems))


class MonitoredLock:
    """Drop-in ``Lock``/``RLock`` wrapper that reports to a
    :class:`LockMonitor`.  Supports the full lock protocol — context
    manager, ``acquire(blocking=..., timeout=...)``, ``release()`` — and
    handles reentrant acquisition when wrapping an ``RLock``.

    Example::

        lock = monitor.wrap(threading.RLock(), "Pool._lock")
        with lock:
            ...                        # acquisition order recorded
    """

    def __init__(self, monitor: LockMonitor, name: str, lock: Any) -> None:
        self._monitor = monitor
        self._name = name
        self._inner = lock
        self._local = threading.local()

    @property
    def name(self) -> str:
        """The name this lock reports under — conventionally
        ``ClassName.attr`` as produced by :func:`instrument`, so reports
        read like code."""
        return self._name

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        """Acquire the underlying lock; on success, record the
        acquisition (and an order edge from every lock this thread
        already holds) and start the hold timer.  Returns the underlying
        lock's result, so non-blocking probes behave identically."""
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._monitor._note_acquired(self._name)
            stack = getattr(self._local, "acquired_at", None)
            if stack is None:
                stack = self._local.acquired_at = []
            stack.append(time.monotonic())
        return acquired

    def release(self) -> None:
        """Release the underlying lock and report the completed hold
        duration to the monitor.  Raises whatever the underlying lock
        raises when released by a non-owner."""
        self._inner.release()
        stack = getattr(self._local, "acquired_at", None) or [time.monotonic()]
        self._monitor._note_released(self._name, time.monotonic() - stack.pop())

    def locked(self) -> bool:
        """Return whether the underlying lock is currently held (by any
        thread), mirroring ``threading.Lock.locked`` where the wrapped
        primitive provides it."""
        probe = getattr(self._inner, "locked", None)
        return bool(probe()) if callable(probe) else False

    def __enter__(self) -> "MonitoredLock":
        self.acquire()
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()


class MonitoredCondition:
    """Drop-in ``threading.Condition`` wrapper reporting to a
    :class:`LockMonitor`.  ``wait()`` is modelled as a release followed
    by a re-acquire — exactly what the real Condition does with its
    underlying lock — so parked waiters do not register as long holds
    and wake-ups record fresh acquisition edges.

    Example::

        cond = monitor.wrap_condition(threading.Condition(), "Svc._cond")
        with cond:
            cond.wait_for(lambda: queue, timeout=1.0)
    """

    def __init__(self, monitor: LockMonitor, name: str, cond: threading.Condition) -> None:
        self._monitor = monitor
        self._name = name
        self._inner = cond
        self._local = threading.local()

    def _mark_acquired(self) -> None:
        self._monitor._note_acquired(self._name)
        stack = getattr(self._local, "acquired_at", None)
        if stack is None:
            stack = self._local.acquired_at = []
        stack.append(time.monotonic())

    def _mark_released(self) -> None:
        stack = getattr(self._local, "acquired_at", None) or [time.monotonic()]
        self._monitor._note_released(self._name, time.monotonic() - stack.pop())

    def acquire(self, *args: Any) -> bool:
        """Acquire the condition's underlying lock, recording the
        acquisition with the monitor exactly as :class:`MonitoredLock`
        does for a plain lock."""
        acquired = self._inner.acquire(*args)
        if acquired:
            self._mark_acquired()
        return acquired

    def release(self) -> None:
        """Release the condition's underlying lock and report the
        completed hold duration to the monitor."""
        self._inner.release()
        self._mark_released()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until notified or ``timeout`` elapses.  Reported to the
        monitor as release-then-reacquire so the time spent parked never
        counts as holding the lock."""
        self._mark_released()
        try:
            return self._inner.wait(timeout)
        finally:
            self._mark_acquired()

    def wait_for(self, predicate: Callable[[], Any], timeout: float | None = None) -> Any:
        """Block until ``predicate()`` is truthy or ``timeout`` elapses,
        with the same release/re-acquire accounting as :meth:`wait`; the
        predicate itself runs while the lock is (re-)held."""
        self._mark_released()
        try:
            return self._inner.wait_for(predicate, timeout)
        finally:
            self._mark_acquired()

    def notify(self, n: int = 1) -> None:
        """Wake up to ``n`` threads waiting on this condition; purely
        delegated, since notifying changes no lock-ownership state."""
        self._inner.notify(n)

    def notify_all(self) -> None:
        """Wake all threads waiting on this condition; purely delegated,
        since notifying changes no lock-ownership state."""
        self._inner.notify_all()

    def __enter__(self) -> "MonitoredCondition":
        self.acquire()
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()


def instrument(obj: Any, monitor: LockMonitor) -> list[str]:
    """Replace every ``Lock``/``RLock``/``Condition`` attribute of ``obj``
    with a monitored wrapper reporting to ``monitor``, returning the list
    of wrapped report-names (``ClassName.attr``).  Idempotent per
    attribute — already-wrapped locks are left alone — and reversible by
    reassigning the originals (each wrapper keeps its primitive in
    ``_inner``).

    Example::

        pool = ModelPool(loader, capacity=2)
        wrapped = instrument(pool, monitor)
        assert wrapped == ["ModelPool._lock"]
    """
    wrapped: list[str] = []
    cls_name = type(obj).__name__
    for attr, value in list(vars(obj).items()):
        if isinstance(value, (MonitoredLock, MonitoredCondition)):
            continue
        name = f"{cls_name}.{attr}"
        if isinstance(value, threading.Condition):
            setattr(obj, attr, monitor.wrap_condition(value, name))
            wrapped.append(name)
        elif isinstance(value, _LOCK_TYPES):
            setattr(obj, attr, monitor.wrap(value, name))
            wrapped.append(name)
    return wrapped


def _instrument_many(objs: Iterable[Any], monitor: LockMonitor) -> list[str]:
    names: list[str] = []
    for obj in objs:
        names.extend(instrument(obj, monitor))
    return names
