"""Serving-suite fixtures: lock monitoring for chaos tests, a watchdog
for network tests.

Every chaos-marked test in this directory runs with the serving
components' locks wrapped by a :class:`repro.devtools.LockMonitor`
(see ``repro/devtools/runtime.py``): each ``Lock``/``RLock``/
``Condition`` attribute is replaced with a monitored wrapper at
construction time, and the fixture asserts at teardown that the
workload recorded no lock-order inversion.  The chaos suite thereby
checks deadlock *preconditions* on every run, not just the deadlocks
that happen to fire.

Every **network**-marked test additionally runs under a SIGALRM
watchdog: real sockets and worker processes can hang in ways thread
timeouts cannot reach, and the CI pipeline must never wedge on one
stuck accept.  The watchdog uses only the stdlib (no pytest-timeout
dependency), so it works wherever the suite does; the trade-off is
SIGALRM's main-thread-only delivery, which is fine because pytest runs
tests on the main thread.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.devtools import LockMonitor, instrument
from repro.serving import (
    CircuitBreaker,
    ForecastService,
    ModelPool,
    RemoteForecastService,
    RetryPolicy,
    TokenBucket,
    WorkerPool,
)
from repro.serving.faultinject import FaultPlan

#: Per-test wall-clock ceiling for network-marked tests (seconds);
#: overridable via the NETWORK_TEST_TIMEOUT env var (CI sets it
#: explicitly on the dedicated network step).
NETWORK_TEST_TIMEOUT = int(os.environ.get("NETWORK_TEST_TIMEOUT", "120"))

_MONITORED_CLASSES = (
    ForecastService,
    ModelPool,
    FaultPlan,
    RetryPolicy,
    CircuitBreaker,
    WorkerPool,
    TokenBucket,
    RemoteForecastService,
)


@pytest.fixture(autouse=True)
def lock_monitor(request):
    """Instrument serving-component locks during chaos tests.

    Non-chaos tests get the fixture as a no-op (``None``); chaos tests
    receive the active :class:`LockMonitor`, and the fixture fails the
    test at teardown if the run recorded a lock-order inversion.
    """
    if request.node.get_closest_marker("chaos") is None:
        yield None
        return

    monitor = LockMonitor()
    originals = {cls: cls.__init__ for cls in _MONITORED_CLASSES}

    def wrap(cls, original):
        def patched(self, *args, **kwargs):
            original(self, *args, **kwargs)
            instrument(self, monitor)

        patched.__name__ = original.__name__
        return patched

    try:
        for cls, original in originals.items():
            cls.__init__ = wrap(cls, original)
        yield monitor
    finally:
        for cls, original in originals.items():
            cls.__init__ = original
    monitor.assert_clean()


@pytest.fixture(autouse=True)
def network_watchdog(request):
    """SIGALRM per-test timeout for network-marked tests.

    A hung socket, a worker process stuck in accept, or a deadlocked
    pipe would otherwise hang the whole run; the alarm turns it into a
    loud, attributable failure within :data:`NETWORK_TEST_TIMEOUT`
    seconds.  No-op for non-network tests and off the main thread.
    """
    if request.node.get_closest_marker("network") is None:
        yield
        return

    def on_alarm(signum, frame):
        raise TimeoutError(
            f"network test exceeded the {NETWORK_TEST_TIMEOUT}s watchdog "
            f"(likely a hung socket or stuck worker process)"
        )

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(NETWORK_TEST_TIMEOUT)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
