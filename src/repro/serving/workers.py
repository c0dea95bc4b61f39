"""Process workers: shared-nothing forecasting beyond the GIL ceiling.

PR 5 measured the thread ceiling — on one core, ``workers=2`` threads
reach 0.95x of one thread, because numpy inference holds the GIL for
most of each batch.  :class:`WorkerPool` is the way past it: ``N``
``multiprocessing`` worker *processes*, each owning a private
:class:`~repro.api.Forecaster` and :class:`~repro.nn.BufferArena`
(shared-nothing — no cross-process locks, no shared mutable state),
fed jobs over per-worker pipes.

Under the ``fork`` start method (the Linux default) the pool loads the
model **once** in the parent and lets every child inherit the warm
weights through copy-on-write fork — workers are ready on their first
job, no per-process load cost.  Under ``spawn`` each child loads the
artifact itself.  Either way the load honours the pool's
``served_dtype``, so a process-backed server computes in the same dtype
as an in-process one.

The pool satisfies the backend duck type
(:meth:`predict` on stacked ``(B, R, W, C)`` arrays), so it drops into
:class:`~repro.serving.ForecastService` wherever a local model went::

    pool = WorkerPool("sthsl.npz", served_dtype="float32", workers=2).start()
    service = ForecastService(pool, workers=2).start()   # process-backed
    counts = service.predict(window)

Crash handling maps onto the existing taxonomy: a worker that dies
mid-job (segfault, OOM kill, SIGKILL) is detected by its broken pipe,
**respawned immediately**, and the interrupted job fails with
:class:`~repro.serving.WorkerCrashedError` — which the service's
per-request isolation then retries singly against the fresh worker, so
a murdered process drops zero requests (the chaos suite kills workers
with SIGKILL to lock this).
"""

from __future__ import annotations

import multiprocessing
import threading
import time

import numpy as np

from ..api.artifacts import check_served_dtype
from .errors import WorkerCrashedError

__all__ = ["WorkerPool"]


def _worker_main(conn, artifact, served_dtype, forecaster) -> None:
    """Worker-process loop: serve jobs from ``conn`` until told to stop.

    ``forecaster`` is the parent's warm model under ``fork`` (inherited
    copy-on-write) or ``None`` under ``spawn``, in which case the child
    loads ``artifact`` itself at ``served_dtype``.  Jobs are
    ``(kind, payload)`` tuples; replies are ``("ok", result)`` or
    ``("err", exception)``.
    """
    from repro.api import Forecaster

    if forecaster is None and artifact is not None:
        forecaster = Forecaster.load(artifact, served_dtype=served_dtype)
    while True:
        try:
            job = conn.recv()
        except (EOFError, OSError):
            break  # parent went away; die quietly
        kind, payload = job
        if kind == "stop":
            conn.send(("ok", "stopped"))
            break
        try:
            if kind == "ping":
                result = "pong"
            elif kind == "predict":
                result = forecaster.predict(np.asarray(payload))
            else:
                result = ValueError(f"unknown job kind {kind!r}")
                conn.send(("err", result))
                continue
        except Exception as exc:  # noqa: BLE001 - job failure rides the pipe
            try:
                conn.send(("err", exc))
            except Exception:  # noqa: BLE001 - unpicklable exception
                conn.send(("err", RuntimeError(repr(exc))))
            continue
        conn.send(("ok", result))


class _Worker:
    """Parent-side record for one worker process (pipe + busy flag).

    Mutated only under the owning pool's condition lock.
    """

    __slots__ = ("process", "conn", "busy", "generation")

    def __init__(self, process, conn, generation: int):
        self.process = process
        self.conn = conn
        self.busy = False
        self.generation = generation


class WorkerPool:
    """``N`` forked model processes behind a checkout queue.

    Construct over a saved artifact, ``start()``, and call
    :meth:`predict` from any number of threads — each call checks out an
    idle worker (blocking while all are busy), ships the job over that
    worker's private pipe, and returns the result::

        with WorkerPool("sthsl.npz", workers=2) as pool:
            stacked = pool.predict(window[None])        # (1, R, C)

    ``served_dtype`` is the compute dtype every worker serves the
    artifact in, with the same meaning as in :meth:`Forecaster.load`
    (``None`` keeps the manifest's choice, else the model's native
    dtype).  ``start_method`` defaults to ``fork`` where available (warm
    pre-forked models); pass ``"spawn"`` to make each child load the
    artifact itself.  ``job_timeout`` bounds any single job — a worker
    that neither answers nor dies within it is killed and respawned,
    and the job fails with :class:`~repro.serving.WorkerCrashedError`
    (same as a worker that crashed outright).  ``deaths`` counts
    respawns.  The pool is thread-safe; workers themselves are
    single-job-at-a-time.
    """

    def __init__(
        self,
        artifact=None,
        *,
        served_dtype: str | None = None,
        workers: int = 2,
        start_method: str | None = None,
        job_timeout: float = 300.0,
        fault_hook=None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if job_timeout <= 0:
            raise ValueError(f"job_timeout must be > 0 seconds, got {job_timeout}")
        if start_method is None:
            start_method = (
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else multiprocessing.get_start_method()
            )
        self.artifact = str(artifact) if artifact is not None else None
        self.served_dtype = check_served_dtype(served_dtype)
        self.workers = int(workers)
        self.start_method = start_method
        self.job_timeout = float(job_timeout)
        self._fault_hook = fault_hook
        self._ctx = multiprocessing.get_context(start_method)
        self._cond = threading.Condition()
        self._pool: list[_Worker] = []
        self._running = False
        self._deaths = 0
        self._generation = 0
        self._warm_model = None  # parent-loaded model, fork-inherited

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, warm: bool = True) -> "WorkerPool":
        """Fork the workers (idempotent) and return self.

        Under ``fork`` the artifact is loaded once here, so children
        inherit the warm model; ``warm=True`` additionally pings every
        worker so the pool returns ready-to-serve.
        """
        with self._cond:
            if self._running:
                return self
            if (
                self._warm_model is None
                and self.artifact is not None
                and self.start_method == "fork"
            ):
                from repro.api import Forecaster

                self._warm_model = Forecaster.load(self.artifact, served_dtype=self.served_dtype)
            self._pool = [self._spawn_locked() for _ in range(self.workers)]
            self._running = True
        if warm:
            for worker in list(self._pool):
                self._exchange(worker, ("ping", None), self.job_timeout)
        return self

    def _spawn_locked(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        # Under fork the warm model rides into the child by inheritance;
        # under spawn it would have to pickle, so the child loads instead.
        inherited = self._warm_model if self.start_method == "fork" else None
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self.artifact, self.served_dtype, inherited),
            name=f"forecast-worker-{self._generation}",
            daemon=True,
        )
        self._generation += 1
        process.start()
        child_conn.close()
        return _Worker(process, parent_conn, self._generation - 1)

    def stop(self, timeout: float | None = 5.0) -> None:
        """Stop and join every worker process (idempotent)."""
        with self._cond:
            if not self._running:
                return
            self._running = False
            pool, self._pool = self._pool, []
            self._cond.notify_all()
        for worker in pool:
            try:
                worker.conn.send(("stop", None))
            except (OSError, ValueError):
                pass  # already dead
        for worker in pool:
            worker.process.join(timeout)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout)
            worker.conn.close()

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        """Whether the pool has live workers accepting jobs."""
        with self._cond:
            return self._running

    @property
    def deaths(self) -> int:
        """How many workers have crashed (or hung) and been respawned."""
        with self._cond:
            return self._deaths

    # ------------------------------------------------------------------
    # Job dispatch
    # ------------------------------------------------------------------
    def _checkout(self) -> _Worker:
        with self._cond:
            while True:
                if not self._running:
                    raise WorkerCrashedError("worker pool is stopped")
                for worker in self._pool:
                    if not worker.busy:
                        worker.busy = True
                        return worker
                self._cond.wait(0.5)

    def _checkin(self, worker: _Worker) -> None:
        with self._cond:
            worker.busy = False
            self._cond.notify()

    def _respawn_locked(self, dead: _Worker) -> None:
        self._deaths += 1
        if dead.process.is_alive():
            dead.process.kill()  # hung, not dead: make it dead first
        dead.process.join(1.0)
        dead.conn.close()
        if self._running and dead in self._pool:
            self._pool[self._pool.index(dead)] = self._spawn_locked()
        self._cond.notify_all()

    def _exchange(self, worker: _Worker, job: tuple, timeout: float):
        """Send one job, await its reply, respawn on crash or hang."""
        if self._fault_hook is not None:
            try:
                self._fault_hook("workers.dispatch", kind=job[0])
            except BaseException:
                self._checkin(worker)  # injected dispatch failure: no job was sent
                raise
        crash_reason = None
        try:
            worker.conn.send(job)
            deadline = time.monotonic() + timeout
            while not worker.conn.poll(0.05):
                if not worker.process.is_alive():
                    if worker.conn.poll(0):  # reply raced the death
                        break
                    crash_reason = (
                        f"worker process {worker.process.pid} died mid-job "
                        f"(exitcode {worker.process.exitcode})"
                    )
                    break
                if time.monotonic() > deadline:
                    crash_reason = (
                        f"worker process {worker.process.pid} did not answer "
                        f"within {timeout:.1f}s; killing and respawning"
                    )
                    break
            if crash_reason is None:
                status, result = worker.conn.recv()
            else:
                status, result = "crashed", None
        except (EOFError, OSError, BrokenPipeError) as exc:
            crash_reason = (
                f"worker process {worker.process.pid} dropped its pipe mid-job: {exc!r}"
            )
            status, result = "crashed", None
        if status == "crashed":
            with self._cond:
                self._respawn_locked(worker)
            raise WorkerCrashedError(
                f"{crash_reason}; a replacement worker is up — retry the request"
            )
        self._checkin(worker)
        if status == "err":
            raise result
        return result

    def _dispatch(self, job: tuple, timeout: float | None = None):
        worker = self._checkout()
        return self._exchange(worker, job, timeout or self.job_timeout)

    # ------------------------------------------------------------------
    # Public jobs
    # ------------------------------------------------------------------
    def predict(self, windows: np.ndarray) -> np.ndarray:
        """Predict on a worker process; the service-backend duck type.

        Accepts one ``(R, W, C)`` window or a stacked ``(B, R, W, C)``
        batch, exactly like :meth:`repro.api.Forecaster.predict` — so a
        :class:`~repro.serving.ForecastService` can use the pool as its
        backend directly.  Raises
        :class:`~repro.serving.WorkerCrashedError` if the worker dies
        mid-job (a replacement is already up when it raises).
        """
        return self._dispatch(("predict", np.asarray(windows)))

    def ping(self) -> str:
        """Round-trip a no-op job through one worker (returns ``"pong"``)."""
        return self._dispatch(("ping", None))
