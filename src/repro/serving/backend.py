"""The :class:`ForecastBackend` protocol: one duck type, many services.

Before the network edge existed, "a forecast service" was whatever
looked enough like :class:`~repro.serving.ForecastService` — an
informal duck type the CLI and examples relied on but nothing defined.
This module makes the contract formal: a **forecast backend** is
anything a client can submit raw-count windows to and get ``(R, C)``
predictions back from, whether the compute happens on a thread in this
process (:class:`~repro.serving.ForecastService`), behind a pool of
worker processes (a service over a :class:`~repro.serving.WorkerPool`),
or on the other side of an HTTP connection
(:class:`~repro.serving.RemoteForecastService`).

All implementations are exercised by one parametrized conformance suite
(``tests/serving/test_backend_protocol.py``), so the duck type can no
longer drift implementation by implementation.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

__all__ = ["ForecastBackend"]


@runtime_checkable
class ForecastBackend(Protocol):
    """Structural interface every forecast service front-end satisfies.

    The five-method contract clients program against — local,
    process-worker and remote implementations are interchangeable::

        def drive(backend: ForecastBackend, windows) -> list:
            handles = [backend.submit(w) for w in windows]   # pipelined
            results = [h.wait() for h in handles]
            print(backend.stats().requests_per_sec)
            return results

    ``isinstance(obj, ForecastBackend)`` checks method presence
    (``@runtime_checkable`` protocols check names, not signatures); the
    parametrized conformance suite checks behaviour.  Semantics every
    implementation must honour:

    * windows are **raw counts** ``(R, W, C)``; results are ``(R, C)``
      expected counts, bitwise-equal across implementations serving the
      same artifact at the same served dtype;
    * ``deadline`` is seconds of budget — an expired request fails with
      :class:`~repro.serving.DeadlineExceededError`, never hangs;
    * failures raise typed :class:`~repro.serving.ServingError`
      subclasses;
    * ``predict_many`` preserves input order.
    """

    def submit(self, window: np.ndarray, *, deadline: float | None = None):
        """Enqueue one ``(R, W, C)`` window; return a waitable handle.

        The handle offers ``wait(timeout=None) -> (R, C)``, ``done()``,
        and — after completion — ``degraded``/``tier`` describing which
        fallback tier answered.
        """
        ...

    def predict(
        self,
        window: np.ndarray,
        timeout: float | None = None,
        *,
        deadline: float | None = None,
    ) -> np.ndarray:
        """Blocking single-window convenience: ``submit(...).wait(timeout)``."""
        ...

    def predict_many(
        self,
        windows,
        timeout: float | None = None,
        *,
        deadline: float | None = None,
    ) -> list[np.ndarray]:
        """Predict a burst of windows, results in submission order."""
        ...

    def stats(self):
        """A :class:`~repro.serving.ServiceStats` snapshot of behaviour so far."""
        ...

    def stop(self, timeout: float | None = 5.0) -> None:
        """Release the backend's resources (idempotent).

        Local implementations drain and stop their workers; the remote
        client closes its connections (the server keeps running — it is
        not this client's to stop).
        """
        ...
