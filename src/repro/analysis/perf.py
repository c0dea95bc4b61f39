"""Training/inference/serving throughput measurement (the tracked perf suite).

ST-HSL's efficiency study (paper Table V) compares architectures; this
module instead tracks *our implementation's* throughput over time so
every PR can defend a perf trajectory.  Schema ``repro.perf/v6`` records
four sections:

* ``training`` — windows/sec and epoch wall-clock for the batched
  execution path at several batch sizes, the per-sample fallback path,
  and the float32 compute mode (the v1 payload, nested);
* ``inference`` — predictions/sec for the serving-relevant paths: the
  graph-building forward (what a naive ``predict`` costs: autograd
  closures + parent tracking per op), the per-sample no-grad fast path,
  and the batched fast path under a reusable
  :class:`~repro.nn.BufferArena`;
* ``serving`` — end-to-end requests/sec through a
  :class:`~repro.serving.ForecastService` at several client
  concurrencies *and worker-pool sizes* (the ``workers`` dimension, new
  in v4: every service entry records how many worker threads drained
  the queue), against two sequential per-sample baselines: the
  ``graph`` path (the naive serving baseline: what a pre-fast-path
  ``predict`` loop cost) and the ``no_grad`` path (today's per-sample
  ``Forecaster.predict`` loop).  The service loads the artifact through
  a :class:`~repro.serving.ModelPool` in the float32 serving mode, so
  its margin over the baselines is the serving stack's contribution:
  served dtype + cross-request micro-batching + load amortisation —
  plus, on multi-core hosts, parallel workers (each predicting under
  its own thread-local execution context);
* ``network`` (new in v6) — requests/sec for the same artifact behind
  three deployment shapes at one client concurrency: ``local`` (the
  in-process :class:`~repro.serving.ForecastService`, the wire-tax
  reference), ``remote`` (the same service behind a
  :class:`~repro.serving.NetworkServer` driven through the
  :class:`~repro.serving.RemoteForecastService` client SDK over a real
  loopback socket — HTTP parse + JSON encode/decode per request), and
  ``process_workers`` (the service backed by a
  :class:`~repro.serving.WorkerPool` of forked worker processes —
  pickle + pipe per job, but true multi-core inference).

Entry point: ``benchmarks/perf/run_all.py``; a tier-1 smoke test
(``pytest -m perf_smoke``) validates the schema on a tiny geometry and
guards the committed ``BENCH_perf.json`` speedups against regression.
"""

from __future__ import annotations

import ctypes
import json
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ..core import STHSL
from ..data.datasets import CrimeDataset
from ..training import Trainer, WindowDataset
from .experiment import ExperimentBudget, make_sthsl

__all__ = [
    "PERF_SCHEMA",
    "drive_clients",
    "enable_fast_alloc",
    "measure_network",
    "measure_perf",
    "measure_inference",
    "measure_serving",
    "validate_perf_payload",
    "write_perf_json",
]

PERF_SCHEMA = "repro.perf/v6"

_REQUIRED_TRAINING_KEYS = {"mode", "dtype", "batch_size", "epoch_seconds", "windows_per_sec"}
_REQUIRED_INFERENCE_KEYS = {"path", "dtype", "batch_size", "seconds", "predictions_per_sec"}
_REQUIRED_SEQUENTIAL_KEYS = {"path", "dtype", "requests_per_sec"}
_REQUIRED_SERVICE_KEYS = {"workers", "concurrency", "requests_per_sec", "mean_batch"}
_REQUIRED_NETWORK_KEYS = {"mode", "concurrency", "requests_per_sec"}
_INFERENCE_PATHS = ("graph", "no_grad", "batched")
_SEQUENTIAL_PATHS = ("graph", "no_grad")
_NETWORK_MODES = ("local", "remote", "process_workers")


def enable_fast_alloc() -> bool:
    """Raise glibc's mmap/trim thresholds so large numpy temporaries are reused.

    The autograd hot path allocates and frees multi-megabyte arrays every
    op; with default thresholds glibc returns them to the kernel each time
    and every reuse pays page faults (~10-15% of epoch time on the bench
    geometry).  Safe no-op on non-glibc platforms.  Returns whether the
    tuning was applied.
    """
    try:
        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        m_mmap_threshold, m_trim_threshold = -3, -1
        threshold = 128 * 1024 * 1024
        ok = libc.mallopt(m_mmap_threshold, threshold)
        ok &= libc.mallopt(m_trim_threshold, threshold)
        return bool(ok)
    except OSError:  # pragma: no cover - non-glibc platform
        return False


def _timed_epoch(model, windows: WindowDataset, budget: ExperimentBudget,
                 batch_size: int, use_batched: bool, reps: int) -> float:
    """Best-of-``reps`` wall-clock seconds for one training epoch."""
    trainer = Trainer(
        model,
        lr=budget.lr,
        weight_decay=budget.weight_decay,
        batch_size=batch_size,
        seed=budget.seed,
        use_batched=use_batched,
    )
    best = float("inf")
    trainer._train_epoch(windows, budget.train_limit)  # warm caches / BLAS
    for _ in range(reps):
        start = time.perf_counter()
        trainer._train_epoch(windows, budget.train_limit)
        best = min(best, time.perf_counter() - start)
    return best


def _timed_call(fn: Callable[[], None], reps: int) -> float:
    """Best-of-``reps`` wall-clock seconds for ``fn()`` (one warm-up call)."""
    fn()
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure_inference(
    model,
    stacked: np.ndarray,
    batch_size: int,
    reps: int = 3,
    dtype: str = "float64",
) -> tuple[list[dict], dict[str, float], dict[str, float]]:
    """Predictions/sec over ``stacked`` ``(N, R, W, C)`` windows, three ways.

    * ``graph`` — per-sample eval-mode ``forward`` with gradient recording
      on: the cost a ``predict`` pays without the no-grad fast path (the
      pre-fast-path serving baseline);
    * ``no_grad`` — per-sample ``predict`` (graph-free fast path + arena);
    * ``batched`` — ``predict_batch`` over ``batch_size`` chunks, one
      vectorized pass per chunk reusing the model's arena throughout.

    Returns ``(mode_entries, speedups, seconds)`` — the payload's
    inference entries plus the unrounded per-path best times, so callers
    can derive further ratios without rounding error.
    """
    num_windows = len(stacked)
    model.eval()

    def run_graph() -> None:
        for window in stacked:
            model.forward(window)

    def run_no_grad() -> None:
        for window in stacked:
            model.predict(window)

    def run_batched() -> None:
        for start in range(0, num_windows, batch_size):
            model.predict_batch(stacked[start : start + batch_size])

    entries = []
    seconds: dict[str, float] = {}
    for path, batch, fn in (
        ("graph", 1, run_graph),
        ("no_grad", 1, run_no_grad),
        ("batched", batch_size, run_batched),
    ):
        elapsed = _timed_call(fn, reps)
        seconds[path] = elapsed
        entries.append(
            {
                "path": path,
                "dtype": dtype,
                "batch_size": batch,
                "seconds": round(elapsed, 4),
                "predictions_per_sec": round(num_windows / elapsed, 2),
            }
        )
    speedups = {
        "no_grad_vs_graph": round(seconds["graph"] / seconds["no_grad"], 3),
        "batched_vs_graph": round(seconds["graph"] / seconds["batched"], 3),
        "batched_vs_no_grad": round(seconds["no_grad"] / seconds["batched"], 3),
    }
    return entries, speedups, seconds


def drive_clients(service, windows, clients: int) -> float:
    """Issue each window once through ``service`` from concurrent clients.

    The windows are split round-robin across ``clients`` blocking client
    threads (every thread gets a non-empty share as long as
    ``clients <= len(windows)``), so the service really sees the stated
    concurrency.  Returns elapsed wall-clock seconds; the service's own
    counters (``service.stats()``) accumulate alongside.  Shared by the
    perf harness and the CLI ``serve`` demo.
    """
    chunks = [windows[i::clients] for i in range(clients)]
    threads = [
        threading.Thread(
            target=lambda chunk: [service.predict(w) for w in chunk],
            args=(chunk,),
        )
        for chunk in chunks
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start


def measure_serving(
    artifact_path: str | Path,
    windows: np.ndarray,
    concurrency: Sequence[int] = (1, 4, 16),
    max_batch: int = 4,
    served_dtype: str | None = "float32",
    reps: int = 3,
    workers: Sequence[int] = (1, 2),
) -> dict:
    """Requests/sec through the serving stack vs sequential baselines.

    ``windows`` is a stacked ``(N, R, W, C)`` array of raw-count request
    windows; every run issues each window once (so all modes do identical
    work).  Three measurements:

    * ``sequential.graph`` — a per-sample loop through the graph-building
      forward: the naive serving baseline (what serving cost before the
      no-grad fast path existed);
    * ``sequential.no_grad`` — a per-sample ``Forecaster.predict`` loop
      on the artifact as a plain client would load it (native dtype);
    * ``service`` — a :class:`~repro.serving.ForecastService` over a
      :class:`~repro.serving.ModelPool` entry (float32 serving mode),
      swept over the ``workers`` worker-pool sizes and, for each, driven
      by ``k`` concurrent clients for each ``k`` in ``concurrency``;
      clients block per request, so the coalesced batch is bounded by
      the concurrency.

    Returns the ``serving`` payload section; headline speedups compare
    the concurrency-4 single-worker service against both baselines (the
    trajectory floor recorded before the workers dimension existed), and
    the multi-worker column against the single-worker one.  Example::

        serving = measure_serving("model.npz", stacked, concurrency=(1, 4))
        print(serving["speedups"]["service_conc4_vs_sequential"])
    """
    from ..api import Forecaster
    from ..serving import ForecastService, ModelPool

    windows = np.asarray(windows, dtype=float)
    num_requests = len(windows)

    # Baseline client: loads the artifact itself, native dtype, and
    # loops predict per sample.
    baseline = Forecaster.load(artifact_path)
    model = baseline.model
    mu, sigma = baseline.mu, baseline.sigma
    model.eval()

    def run_graph() -> None:
        for window in windows:
            out = model.forward((window - mu) / sigma)
            prediction = getattr(out, "prediction", out)  # STHSL returns a bundle
            np.maximum(prediction.data * sigma + mu, 0.0)

    def run_no_grad() -> None:
        for window in windows:
            baseline.predict(window)

    sequential = []
    seconds: dict[str, float] = {}
    for path, fn in (("graph", run_graph), ("no_grad", run_no_grad)):
        elapsed = _timed_call(fn, reps)
        seconds[path] = elapsed
        sequential.append(
            {
                "path": path,
                "dtype": "float64",
                "requests_per_sec": round(num_requests / elapsed, 2),
            }
        )

    pool = ModelPool(capacity=2, served_dtype=served_dtype)
    served = pool.get(artifact_path)
    service_entries = []
    service_rps: dict[tuple[int, int], float] = {}  # (workers, clients) -> req/s
    # The tracked numbers run with the resilience layer *on* (a generous
    # per-request deadline plus a bounded admission queue), so the floors
    # defend the production configuration, not a stripped-down one.
    resilience = {"deadline_s": 30.0, "max_queue": 1024}
    for worker_count in workers:
        with ForecastService(
            served,
            max_batch=max_batch,
            workers=worker_count,
            deadline=resilience["deadline_s"],
            max_queue=resilience["max_queue"],
        ) as service:
            # Warm-up burst sized so *every* worker thread drains at least
            # one batch and builds its per-thread arena before timing —
            # a single request would leave N-1 workers allocating cold
            # inside the timed region, deflating the multi-worker column.
            service.predict_many([windows[0]] * max(worker_count * max_batch, 1))
            for requested in concurrency:
                # Round-robin sharing keeps every client thread non-empty, so
                # the recorded concurrency is the concurrency that actually
                # ran; with fewer requests than clients the entry is labelled
                # with the effective client count.
                clients = min(requested, num_requests)

                def run_clients() -> dict:
                    service.reset_stats()
                    elapsed = drive_clients(service, windows, clients)
                    return {"elapsed": elapsed, "stats": service.stats()}

                best = min((run_clients() for _ in range(reps)), key=lambda r: r["elapsed"])
                stats = best["stats"]
                service_rps[worker_count, clients] = num_requests / best["elapsed"]
                service_entries.append(
                    {
                        "workers": worker_count,
                        "concurrency": clients,
                        "requests_per_sec": round(service_rps[worker_count, clients], 2),
                        "mean_batch": round(stats.mean_batch, 3),
                        "latency_p50_ms": round(stats.latency_p50 * 1e3, 3),
                        "latency_p95_ms": round(stats.latency_p95 * 1e3, 3),
                    }
                )

    # Headline floors are computed against the single-worker column (the
    # lowest workers level measured) so the tracked trajectory stays
    # comparable with the pre-workers-dimension history.  When the sweep
    # excludes workers=1 the keys gain a _workersN suffix — a multi-worker
    # measurement must never masquerade under the historical key names the
    # regression floors are pinned to.
    base_workers = min(w for w, _ in service_rps)
    base_clients = sorted(c for w, c in service_rps if w == base_workers)
    headline = 4 if 4 in base_clients else max(base_clients)
    low, high = base_clients[0], base_clients[-1]
    tag = "" if base_workers == 1 else f"_workers{base_workers}"
    speedups = {
        f"service_conc{headline}{tag}_vs_graph_baseline": round(
            service_rps[base_workers, headline] * seconds["graph"] / num_requests, 3
        ),
        f"service_conc{headline}{tag}_vs_sequential": round(
            service_rps[base_workers, headline] * seconds["no_grad"] / num_requests, 3
        ),
        f"service_conc{high}{tag}_vs_conc{low}": round(
            service_rps[base_workers, high] / service_rps[base_workers, low], 3
        ),
    }
    top_workers = max(w for w, _ in service_rps)
    if top_workers != base_workers and (top_workers, headline) in service_rps:
        speedups[f"service_conc{headline}_workers{top_workers}_vs_workers{base_workers}"] = round(
            service_rps[top_workers, headline] / service_rps[base_workers, headline], 3
        )
    return {
        "num_requests": num_requests,
        "max_batch": max_batch,
        "workers": [int(w) for w in workers],
        "resilience": resilience,
        "artifact": {
            "model": baseline.model_name,
            "served_dtype": served.served_dtype,
        },
        "sequential": sequential,
        "service": service_entries,
        "speedups": speedups,
    }


def measure_network(
    artifact_path: str | Path,
    windows: np.ndarray,
    concurrency: int = 4,
    max_batch: int = 4,
    served_dtype: str | None = "float32",
    reps: int = 3,
    process_workers: int = 2,
) -> dict:
    """Requests/sec for one artifact behind three deployment shapes.

    Every mode serves the same ``(N, R, W, C)`` request windows to the
    same ``concurrency`` blocking clients (via :func:`drive_clients`),
    so the columns isolate deployment cost, not workload:

    * ``local`` — the in-process :class:`~repro.serving.ForecastService`
      (the reference the wire tax is measured against);
    * ``remote`` — the same service behind a live
      :class:`~repro.serving.NetworkServer` on an ephemeral loopback
      port, driven through the :class:`~repro.serving.RemoteForecastService`
      client SDK: each request pays HTTP parsing plus JSON
      encode/decode both ways;
    * ``process_workers`` — the service backed by a
      :class:`~repro.serving.WorkerPool` of ``process_workers`` forked
      worker processes: each job pays a pickle + pipe round trip but
      computes outside the client GIL.

    Returns the ``network`` payload section; ``speedups`` records
    ``remote_vs_local`` (the wire tax, expected < 1 on one core) and
    ``process_workers_vs_local``.  Example::

        network = measure_network("model.npz", stacked, concurrency=4)
        print(network["speedups"]["remote_vs_local"])
    """
    from ..serving import (
        ForecastService,
        ModelPool,
        NetworkServer,
        RemoteForecastService,
        WorkerPool,
    )

    windows = np.asarray(windows, dtype=float)
    num_requests = len(windows)
    clients = min(concurrency, num_requests)
    pool = ModelPool(capacity=2, served_dtype=served_dtype)
    served = pool.get(artifact_path)

    def best_rate(backend) -> float:
        elapsed = min(drive_clients(backend, windows, clients) for _ in range(reps))
        return num_requests / elapsed

    entries: list[dict] = []
    rates: dict[str, float] = {}

    with ForecastService(served, max_batch=max_batch, workers=1) as service:
        service.predict_many([windows[0]] * max_batch)
        rates["local"] = best_rate(service)
        entries.append(
            {
                "mode": "local",
                "transport": "in_process",
                "workers": 1,
                "concurrency": clients,
                "requests_per_sec": round(rates["local"], 2),
            }
        )

    with ForecastService(served, max_batch=max_batch, workers=1) as service:
        with NetworkServer(service, port=0, model="perf") as server:
            client = RemoteForecastService(server.url, max_connections=clients)
            try:
                client.predict(windows[0])  # connection + edge warm-up
                rates["remote"] = best_rate(client)
            finally:
                client.stop()
        entries.append(
            {
                "mode": "remote",
                "transport": "http_loopback",
                "workers": 1,
                "concurrency": clients,
                "requests_per_sec": round(rates["remote"], 2),
            }
        )

    with WorkerPool(artifact_path, workers=process_workers, job_timeout=120.0) as wpool:
        with ForecastService(
            wpool, max_batch=max_batch, workers=process_workers
        ) as service:
            service.predict_many([windows[0]] * max(process_workers * max_batch, 1))
            rates["process_workers"] = best_rate(service)
            entries.append(
                {
                    "mode": "process_workers",
                    "transport": "pipe_fork",
                    "workers": process_workers,
                    "concurrency": clients,
                    "requests_per_sec": round(rates["process_workers"], 2),
                }
            )

    return {
        "num_requests": num_requests,
        "concurrency": clients,
        "max_batch": max_batch,
        "rpc_schema": "repro.rpc/v1",
        "modes": entries,
        "speedups": {
            "remote_vs_local": round(rates["remote"] / rates["local"], 3),
            "process_workers_vs_local": round(
                rates["process_workers"] / rates["local"], 3
            ),
        },
    }


def measure_perf(
    dataset: CrimeDataset,
    budget: ExperimentBudget,
    batch_sizes: Sequence[int] = (1, 4, 16),
    reps: int = 3,
    include_float32: bool = True,
    seed_reference: dict | None = None,
    fast_alloc: bool = True,
    inference_windows: int = 64,
    inference_batch: int | None = None,
    serving_concurrency: Sequence[int] = (1, 4, 16),
    serving_max_batch: int = 4,
    serving_workers: Sequence[int] = (1, 2),
    network_concurrency: int = 4,
    network_process_workers: int = 2,
) -> dict:
    """Measure training and inference throughput across execution modes.

    Training modes: the per-sample fallback path (``sequential``, at the
    largest batch size so the accumulation schedule matches), the batched
    path at each requested batch size, and optionally the float32 compute
    mode at the largest batch size.  Inference paths: see
    :func:`measure_inference`, plus — when ``include_float32`` — the
    batched fast path in the float32 compute mode (the serving analogue
    of the training float32 column).  ``seed_reference`` (a recorded
    pre-batching measurement, see ``benchmarks/perf/run_all.py``) is
    embedded verbatim and used for the headline speedup when provided.

    ``fast_alloc`` applies :func:`enable_fast_alloc`, which retunes the
    process-wide glibc allocator for the rest of the process — pass
    ``False`` when measuring inside a host process (test runner,
    notebook) whose allocator behaviour should be left alone.

    The serving section (see :func:`measure_serving`) reuses the
    inference request windows: a temporary artifact is saved from the
    bench model and served through the pool + service stack at each
    ``serving_concurrency`` level for each ``serving_workers`` pool
    size.

    The network section (see :func:`measure_network`) serves the same
    artifact behind the in-process service, a live loopback
    :class:`~repro.serving.NetworkServer`, and a
    :class:`~repro.serving.WorkerPool` of ``network_process_workers``
    forked processes, all at ``network_concurrency`` clients.
    """
    if fast_alloc:
        enable_fast_alloc()
    windows = WindowDataset(dataset, window=budget.window)
    # Windows actually visited per epoch: the limit cannot exceed the split.
    available = windows.num_samples("train")
    num_windows = min(budget.train_limit, available) if budget.train_limit else available
    top_batch = max(batch_sizes)
    modes: list[dict] = []

    def record(mode: str, dtype: str, batch_size: int, seconds: float) -> dict:
        entry = {
            "mode": mode,
            "dtype": dtype,
            "batch_size": batch_size,
            "epoch_seconds": round(seconds, 4),
            "windows_per_sec": round(num_windows / seconds, 2),
        }
        modes.append(entry)
        return entry

    sequential = _timed_epoch(
        make_sthsl(dataset, budget), windows, budget, top_batch, use_batched=False, reps=reps
    )
    record("sequential", "float64", top_batch, sequential)

    batched: dict[int, float] = {}
    for batch_size in batch_sizes:
        batched[batch_size] = _timed_epoch(
            make_sthsl(dataset, budget), windows, budget, batch_size, use_batched=True, reps=reps
        )
        record("batched", "float64", batch_size, batched[batch_size])

    if include_float32:
        base = make_sthsl(dataset, budget)
        model32 = STHSL(base.config.with_overrides(compute_dtype="float32"), seed=budget.seed)
        seconds32 = _timed_epoch(model32, windows, budget, top_batch, use_batched=True, reps=reps)
        record("batched", "float32", top_batch, seconds32)

    training_speedups = {
        "batched_top_vs_sequential": round(sequential / batched[top_batch], 3),
    }

    # ----- Inference section -----
    samples = list(windows.samples("train"))[: max(1, inference_windows)]
    stacked = np.stack([sample.window for sample in samples])
    # Forward-only passes are memory-locality-bound at the bench geometry,
    # same as training: small batches win on a single core.
    infer_batch = inference_batch if inference_batch is not None else min(4, top_batch)
    infer_model = make_sthsl(dataset, budget)
    inference_modes, inference_speedups, inference_seconds = measure_inference(
        infer_model, stacked, batch_size=infer_batch, reps=reps
    )
    if include_float32:
        # The serving-mode counterpart of the training section's float32
        # column: the batched fast path in the float32 compute mode,
        # against the same float64 graph-building baseline.
        graph_seconds = inference_seconds["graph"]
        infer32 = STHSL(
            infer_model.config.with_overrides(compute_dtype="float32"), seed=budget.seed
        )

        def run_batched32() -> None:
            for start in range(0, len(stacked), infer_batch):
                infer32.predict_batch(stacked[start : start + infer_batch])

        infer32.eval()
        elapsed32 = _timed_call(run_batched32, reps)
        inference_modes.append(
            {
                "path": "batched",
                "dtype": "float32",
                "batch_size": infer_batch,
                "seconds": round(elapsed32, 4),
                "predictions_per_sec": round(len(stacked) / elapsed32, 2),
            }
        )
        inference_speedups["batched_float32_vs_graph"] = round(graph_seconds / elapsed32, 3)

    # ----- Serving section -----
    # A self-describing artifact of the bench model, served through the
    # pool + service stack against the same request windows (raw counts).
    from ..api import Forecaster
    from ..api.registry import ModelGeometry

    serving_fc = Forecaster("ST-HSL", budget=budget, hidden=8)
    serving_fc.geometry = ModelGeometry.of(dataset)
    serving_fc.model = make_sthsl(dataset, budget)
    serving_fc.mu = float(dataset.mu)
    serving_fc.sigma = float(dataset.sigma)
    serving_fc.categories = dataset.categories
    raw_windows = np.stack(
        [dataset.tensor[:, sample.day - budget.window : sample.day, :] for sample in samples]
    )
    with tempfile.TemporaryDirectory() as tmp:
        artifact_path = Path(tmp) / "bench_model.npz"
        serving_fc.save(artifact_path)
        serving = measure_serving(
            artifact_path,
            raw_windows,
            concurrency=tuple(serving_concurrency),
            max_batch=serving_max_batch,
            reps=reps,
            workers=tuple(serving_workers),
        )
        network = measure_network(
            artifact_path,
            raw_windows,
            concurrency=network_concurrency,
            max_batch=serving_max_batch,
            reps=reps,
            process_workers=network_process_workers,
        )

    payload = {
        "schema": PERF_SCHEMA,
        "geometry": {
            "rows": dataset.grid.rows,
            "cols": dataset.grid.cols,
            "num_days": dataset.num_days,
            "num_categories": dataset.num_categories,
            "window": budget.window,
            "train_limit": budget.train_limit,
        },
        "training": {"modes": modes, "speedups": training_speedups},
        "inference": {
            "num_windows": len(stacked),
            "modes": inference_modes,
            "speedups": inference_speedups,
        },
        "serving": serving,
        "network": network,
    }
    if seed_reference is not None:
        payload["seed_reference"] = dict(seed_reference)
        seed_seconds = float(seed_reference["epoch_seconds"])
        training_speedups["batched_top_vs_seed"] = round(seed_seconds / batched[top_batch], 3)
        if include_float32:
            training_speedups["batched_top_float32_vs_seed"] = round(seed_seconds / seconds32, 3)
    return payload


def _validate_section(section, name: str, required_keys: set, time_key: str, rate_key: str) -> None:
    if not isinstance(section, dict):
        raise ValueError(f"{name} must be a mapping")
    for key in ("modes", "speedups"):
        if key not in section:
            raise ValueError(f"{name} missing key {key!r}")
    if not isinstance(section["modes"], list) or not section["modes"]:
        raise ValueError(f"{name}.modes must be a non-empty list")
    for entry in section["modes"]:
        missing = required_keys - set(entry)
        if missing:
            raise ValueError(f"{name} mode entry missing keys {sorted(missing)}")
        if entry["dtype"] not in ("float32", "float64"):
            raise ValueError(f"unknown dtype {entry['dtype']!r}")
        if not entry[time_key] > 0 or not entry[rate_key] > 0:
            raise ValueError(f"{name} timings must be positive")
    if not all(isinstance(v, (int, float)) and v > 0 for v in section["speedups"].values()):
        raise ValueError(f"{name}.speedups must be positive numbers")


def _validate_serving(section) -> None:
    if not isinstance(section, dict):
        raise ValueError("serving must be a mapping")
    for key in ("num_requests", "max_batch", "workers", "artifact", "sequential", "service", "speedups"):
        if key not in section:
            raise ValueError(f"serving missing key {key!r}")
    if not isinstance(section["workers"], list) or not all(
        isinstance(w, int) and w >= 1 for w in section["workers"]
    ):
        raise ValueError("serving.workers must be a list of positive ints")
    if not isinstance(section["sequential"], list) or not section["sequential"]:
        raise ValueError("serving.sequential must be a non-empty list")
    for entry in section["sequential"]:
        missing = _REQUIRED_SEQUENTIAL_KEYS - set(entry)
        if missing:
            raise ValueError(f"serving sequential entry missing keys {sorted(missing)}")
        if entry["path"] not in _SEQUENTIAL_PATHS:
            raise ValueError(f"unknown serving baseline path {entry['path']!r}")
        if not entry["requests_per_sec"] > 0:
            raise ValueError("serving baseline rates must be positive")
    if not isinstance(section["service"], list) or not section["service"]:
        raise ValueError("serving.service must be a non-empty list")
    for entry in section["service"]:
        missing = _REQUIRED_SERVICE_KEYS - set(entry)
        if missing:
            raise ValueError(f"serving service entry missing keys {sorted(missing)}")
        if not entry["requests_per_sec"] > 0 or not entry["concurrency"] >= 1:
            raise ValueError("serving service entries must have positive rates")
        if not entry["workers"] >= 1:
            raise ValueError("serving service entries must record workers >= 1")
    if not all(isinstance(v, (int, float)) and v > 0 for v in section["speedups"].values()):
        raise ValueError("serving.speedups must be positive numbers")


def _validate_network(section) -> None:
    if not isinstance(section, dict):
        raise ValueError("network must be a mapping")
    for key in ("num_requests", "concurrency", "modes", "speedups"):
        if key not in section:
            raise ValueError(f"network missing key {key!r}")
    if not isinstance(section["modes"], list) or not section["modes"]:
        raise ValueError("network.modes must be a non-empty list")
    recorded = set()
    for entry in section["modes"]:
        missing = _REQUIRED_NETWORK_KEYS - set(entry)
        if missing:
            raise ValueError(f"network mode entry missing keys {sorted(missing)}")
        if entry["mode"] not in _NETWORK_MODES:
            raise ValueError(f"unknown network mode {entry['mode']!r}")
        if not entry["requests_per_sec"] > 0 or not entry["concurrency"] >= 1:
            raise ValueError("network mode entries must have positive rates")
        recorded.add(entry["mode"])
    missing_modes = set(_NETWORK_MODES) - recorded
    if missing_modes:
        raise ValueError(f"network section missing modes {sorted(missing_modes)}")
    if not all(isinstance(v, (int, float)) and v > 0 for v in section["speedups"].values()):
        raise ValueError("network.speedups must be positive numbers")


def validate_perf_payload(payload: dict) -> None:
    """Raise ``ValueError`` if ``payload`` does not match the v6 perf schema.

    The network section must record all three deployment shapes (local,
    remote, process_workers).
    """
    if payload.get("schema") != PERF_SCHEMA:
        raise ValueError(
            f"unexpected schema tag: {payload.get('schema')!r} (expected {PERF_SCHEMA}; "
            "re-run benchmarks/perf/run_all.py to regenerate pre-v6 payloads)"
        )
    for key in ("geometry", "training", "inference", "serving", "network"):
        if key not in payload:
            raise ValueError(f"missing top-level key {key!r}")
    _validate_section(
        payload["training"], "training", _REQUIRED_TRAINING_KEYS, "epoch_seconds", "windows_per_sec"
    )
    for entry in payload["training"]["modes"]:
        if entry["mode"] not in ("sequential", "batched"):
            raise ValueError(f"unknown training mode {entry['mode']!r}")
    _validate_section(
        payload["inference"], "inference", _REQUIRED_INFERENCE_KEYS, "seconds", "predictions_per_sec"
    )
    for entry in payload["inference"]["modes"]:
        if entry["path"] not in _INFERENCE_PATHS:
            raise ValueError(f"unknown inference path {entry['path']!r}")
    _validate_serving(payload["serving"])
    _validate_network(payload["network"])


def write_perf_json(payload: dict, path) -> None:
    """Validate and pretty-write a perf payload."""
    validate_perf_payload(payload)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
        handle.write("\n")
