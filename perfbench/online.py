"""The online workload: ``serve``.

The program is started the way users start it -- ``python -m repro.cli
serve --checkpoint A --rows 6 --cols 6 --listen 127.0.0.1:0 --requests 0``
in a fresh process, every other flag at its default -- and driven from
this process through the ``RemoteForecastService`` client SDK over at
most ``nproc`` (and at most 2) connections and sender threads.

Traffic, all derived from the seed: one request in ten is
``/v1/predict_batch`` with 8 windows (the batches give the service's
micro-batcher work over only 2 connections), the rest ``/v1/predict``
with one window, in three phases:
open-loop Poisson arrivals at the fixed ``light`` rate, the same at the
fixed ``busy`` rate, then a closed loop that keeps every connection busy.
Open-loop latency is timed from each request's due time, so a stall
delays every request behind it; a failed or wrong response counts as
slower than any limit.

A traced run also starts the traced server with ``--process-workers 2
--workers 2`` and drives it in a closed loop, to measure the
``repro.serving.workers`` layer, which the default flags bypass.
"""

from __future__ import annotations

import json
import math
import os
import queue
import signal
import subprocess
import sys
import threading
import time

import numpy as np

import layers
from common import ROOT, SRC, Result, children, median, nearest_rank, peak_rss_mb, tail_quantile
from offline import CITY, DAYS, WINDOW, pass_order, save_artifact
from repro.api import Forecaster
from repro.data import load_city
from repro.serving import RemoteForecastService, ServingError, rpc
from spans import Tracer

GRID = 6
SENDERS = max(1, min(2, os.cpu_count() or 1))
BATCH_SHARE = 0.1
BATCH_WINDOWS = 8
#: Offered loads in req/s, frozen at about 1/4 and 2/3 of ``max_rps`` when
#: the benchmark was defined; a faster program shows up as lower latency
#: at the same load.
RATES = {"light": 30.0, "busy": 80.0}
#: Phases and their share of ``--seconds``.
PHASES = (("light", 0.4), ("busy", 0.25), ("saturation", 0.35))
#: Servers spawned per untraced run, each timed to its first answer; the
#: last TRAFFIC_SERVERS each carry an equal share of the traffic, and the
#: bounded figures are medians over them, because one server instance's
#: throughput varies by ~15% with where the OS happens to run it.
SETUP_SPAWNS = 5
TRAFFIC_SERVERS = 3
#: Untraced/traced server pairs of a traced run, each with an equal share
#: of the traffic; then the process-workers server, driven in a closed
#: loop for this share of ``--seconds``.
TRACE_PAIRS = 3
WORKERS_FLAGS = ("--process-workers", "2", "--workers", "2")
WORKERS_SHARE = 0.3
#: float32 tolerance against the local reference: |a - b| <= ATOL + RTOL * |b|.
RTOL, ATOL = 1e-5, 1e-6
#: A phase is flagged when the generator's lateness reaches this share of
#: the latency it measured, at the median or at the tail percentile.
LAG_FLAG_SHARE = 0.5
#: The generator's GIL switch interval: the dispatcher wakes on time while
#: sender threads encode and decode JSON.
SWITCH_INTERVAL_S = 0.001
_SERVER_CODEC = ("net.codec.loads", "net.codec.predict_decode", "net.codec.batch_decode",
                 "net.codec.predict_encode", "net.codec.batch_encode")
_CLIENT_CODEC = {"encode_predict_request": "remote.codec.predict_encode",
                 "decode_predict_response": "remote.codec.predict_decode",
                 "encode_batch_request": "remote.codec.batch_encode",
                 "decode_batch_response": "remote.codec.batch_decode"}


class Request:
    """One planned request and what happened to it."""

    __slots__ = ("offset", "idx", "due", "dispatched", "sent", "done", "outputs", "error", "ok")

    def __init__(self, offset: float, idx: tuple):
        self.offset = offset
        self.idx = idx
        self.due = self.dispatched = self.sent = self.done = 0.0
        self.outputs = None
        self.error = None
        self.ok = False


def _mix(rng, n: int, offsets) -> list[Request]:
    """Requests at ``offsets``: one batch request in every block of
    ``1 / BATCH_SHARE``, at a seeded place in the block, the rest single.

    A fixed share keeps the work per request the same from seed to seed.
    """
    block = round(1 / BATCH_SHARE)
    requests = []
    for i, offset in enumerate(offsets):
        if i % block == 0:
            batch_at = i + int(rng.integers(block))
        size = BATCH_WINDOWS if i == batch_at else 1
        requests.append(Request(offset, tuple(int(j) for j in rng.integers(0, n, size=size))))
    return requests


def _closed_plan(rng, n: int, duration: float) -> list[Request]:
    return _mix(rng, n, [0.0] * int(duration * 2000))


def make_plans(seed: int, seconds: float, n: int) -> dict:
    """``phase -> (duration_s, requests)``; open-loop offsets are Poisson."""
    rng = np.random.default_rng(seed)
    plans = {}
    for name, share in PHASES:
        duration = share * seconds
        if name == "saturation":
            plans[name] = (duration, _closed_plan(rng, n, duration))
            continue
        rate, offsets = RATES[name], []
        offset = rng.exponential(1.0 / rate)
        while offset < duration:
            offsets.append(offset)
            offset += rng.exponential(1.0 / rate)
        plans[name] = (duration, _mix(rng, n, offsets))
    return plans


def _send(client, windows, req: Request) -> None:
    req.sent = time.perf_counter()
    try:
        if len(req.idx) > 1:
            req.outputs = client.predict_many([windows[i] for i in req.idx])
        else:
            req.outputs = [client.predict(windows[req.idx[0]])]
    except Exception as exc:  # noqa: BLE001 - a failed request is counted, not raised
        req.error = repr(exc)
    req.done = time.perf_counter()


def _open_loop(client, windows, plan: list) -> dict:
    pending: queue.SimpleQueue = queue.SimpleQueue()

    def sender() -> None:
        while (req := pending.get()) is not None:
            _send(client, windows, req)

    threads = [threading.Thread(target=sender, daemon=True) for _ in range(SENDERS)]
    for thread in threads:
        thread.start()
    start = time.perf_counter() + 0.01
    backlog = 0
    for req in plan:
        req.due = start + req.offset
        delay = req.due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        req.dispatched = time.perf_counter()
        pending.put(req)
        backlog = max(backlog, pending.qsize())
    for _ in threads:
        pending.put(None)
    for thread in threads:
        thread.join(120.0)
    return {"requests": plan, "start": start, "end": time.perf_counter(), "backlog_max": backlog}


def _closed_loop(client, windows, plan: list, duration: float) -> dict:
    feed = iter(plan)
    lock = threading.Lock()
    sent: list[Request] = []
    start = time.perf_counter()
    stop = start + duration

    def sender() -> None:
        while time.perf_counter() < stop:
            with lock:
                req = next(feed, None)
            if req is None:
                return
            req.due = req.dispatched = time.perf_counter()
            _send(client, windows, req)
            sent.append(req)

    threads = [threading.Thread(target=sender, daemon=True) for _ in range(SENDERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(120.0)
    return {"requests": sent, "start": start, "end": max(r.done for r in sent), "backlog_max": 0}


def _warmup(client, windows) -> dict:
    """One batch request of every size up to max-batch, twice, one at a time.

    The service's arena keeps buffers per batch shape, so which shapes
    the traffic happened to produce would otherwise set the server's
    memory peak; a long-running server has seen them all.
    """
    plan = [Request(0.0, tuple(range(size))) for size in range(1, BATCH_WINDOWS + 1) for _ in range(2)]
    start = time.perf_counter()
    for req in plan:
        req.due = req.dispatched = time.perf_counter()
        _send(client, windows, req)
    return {"requests": plan, "start": start, "end": time.perf_counter(), "backlog_max": 0}


def drive(client, windows, plans: dict) -> dict:
    """Warm up, then run every phase of ``plans`` against ``client``; ``phase -> run``."""
    runs = {"warmup": _warmup(client, windows)}
    for name, (duration, plan) in plans.items():
        if name == "saturation":
            runs[name] = _closed_loop(client, windows, plan, duration)
        else:
            runs[name] = _open_loop(client, windows, plan)
    return runs


def _check(req: Request, ref: np.ndarray, figures: dict | None = None) -> None:
    """Mark ``req`` ok when every output is within float32 tolerance of the
    local float32 reference; count the outputs bitwise-equal to it."""
    if req.outputs is None:
        return
    got, want = np.stack(req.outputs), ref[list(req.idx)]
    req.ok = got.shape == want.shape and bool(np.all(np.abs(got - want) <= ATOL + RTOL * np.abs(want)))
    if not req.ok:
        req.error = f"response differs from the local float32 reference by {np.max(np.abs(got - want)):.3g}"
    elif figures is not None:
        figures["dev32"] = max(figures["dev32"], float(np.max(np.abs(got - want))))
        figures["exact32"] += sum(np.array_equal(g, w) for g, w in zip(got, want))


def _summarize(result: Result, runs: dict, ref, label: str = "") -> dict:
    """Per-phase counts and latencies; returns the phase figures by name."""
    figures = {"dev32": 0.0, "exact32": 0}
    for name, run in runs.items():
        reqs = run["requests"]
        for req in reqs:
            _check(req, ref, figures)
        latency = sorted(r.done - r.due if r.ok else math.inf for r in reqs)
        lag = sorted(r.dispatched - r.due for r in reqs)
        wait = sorted(r.sent - r.dispatched for r in reqs)
        q = tail_quantile(len(reqs))
        p50 = nearest_rank(latency, 50)
        elapsed = run["end"] - run["start"]
        open_loop = name in RATES
        info = {
            "loop": "open" if open_loop else "closed",
            "offered_per_s": RATES[name] if open_loop else len(reqs) / elapsed,
            "completed_per_s": sum(r.ok for r in reqs) / elapsed,
            "p50_ms": 1e3 * p50,
            f"p{q}_ms" if q else "max_ms": 1e3 * nearest_rank(latency, q or 100),
            "gen_lag_p50_ms": 1e3 * nearest_rank(lag, 50),
            "gen_lag_p99_ms": 1e3 * nearest_rank(lag, 99),
            "backlog_max": run["backlog_max"],
            "backlog_wait_p99_ms": 1e3 * nearest_rank(wait, 99),
        }
        info["flagged"] = open_loop and (
            nearest_rank(lag, 50) >= LAG_FLAG_SHARE * p50
            or nearest_rank(lag, q or 100) >= LAG_FLAG_SHARE * nearest_rank(latency, q or 100)
        )
        errors = [r.error for r in reqs if r.error]
        if errors:
            info["first_error"] = errors[0]
        failed = sum(not r.ok for r in reqs)
        result.phase(label + name, len(reqs), failed, **info)
        figures[name] = {"p50": p50, "latency": latency, "n": len(reqs),
                         "rps": info["completed_per_s"], "elapsed": elapsed}
    return figures


def _reference(artifact, windows, dtype) -> np.ndarray:
    fc = Forecaster.load(artifact, served_dtype=dtype)
    return np.stack([fc.predict(window) for window in windows])


def _listening_port(pid: int) -> int | None:
    inodes = set()
    try:
        for fd in os.listdir(f"/proc/{pid}/fd"):
            try:
                target = os.readlink(f"/proc/{pid}/fd/{fd}")
            except OSError:
                continue
            if target.startswith("socket:["):
                inodes.add(target[8:-1])
    except OSError:
        return None
    with open("/proc/net/tcp") as table:
        next(table)
        for line in table:
            fields = line.split()
            if fields[3] == "0A" and fields[9] in inodes:
                return int(fields[1].rsplit(":", 1)[1], 16)
    return None


class Server:
    """One server process in its own session, so it and its workers are always reaped.

    Its port is read from ``/proc`` (the CLI's stdout is block-buffered on
    a pipe); it counts as ready when ``/healthz`` answers.
    """

    def __init__(self, argv: list[str], log_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        self.log = open(log_path, "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdout=self.log, stderr=subprocess.STDOUT, start_new_session=True
        )

    def connect(self, timeout: float = 90.0) -> RemoteForecastService:
        deadline = time.monotonic() + timeout
        port = None
        while port is None:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with code {self.proc.returncode} before listening")
            if time.monotonic() > deadline:
                raise RuntimeError(f"server did not listen within {timeout:.0f}s")
            port = _listening_port(self.proc.pid)
            if port is None:
                time.sleep(0.005)
        client = RemoteForecastService(f"http://127.0.0.1:{port}", max_connections=SENDERS)
        while True:
            try:
                if client.health().get("running"):
                    return client
            except ServingError:
                pass
            if time.monotonic() > deadline:
                client.stop()
                raise RuntimeError(f"server did not answer /healthz within {timeout:.0f}s")
            time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        """Peak RSS of the server plus its worker processes."""
        return sum(peak_rss_mb(pid) for pid in [self.proc.pid, *children(self.proc.pid)])

    def stop(self, timeout: float = 30.0) -> int:
        """SIGINT (the CLI's own shutdown path), then SIGKILL whatever is left."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        code = self.proc.wait()
        self.log.close()
        return code


def _cli(artifact, launcher_out=None, flags=()) -> list[str]:
    args = ["serve", "--checkpoint", str(artifact), "--rows", str(GRID), "--cols", str(GRID),
            "--listen", "127.0.0.1:0", "--requests", "0", *flags]
    if launcher_out is None:
        return [sys.executable, "-m", "repro.cli", *args]
    return [sys.executable, str(ROOT / "perfbench" / "launcher.py"), str(launcher_out), *args]


def _serve_once(argv, windows, plans, log_path, client_tracer: Tracer | None = None) -> dict:
    """Spawn one server, time it to its first answer, drive ``plans`` (if
    any) with the client codec traced by ``client_tracer`` (if given), stop it."""
    server = client = None
    runs, statz, rss = {}, {}, 0.0
    try:
        server = Server(argv, log_path)
        client = server.connect()
        first = Request(0.0, (0,))
        first.due = first.dispatched = server.started
        _send(client, windows, first)
        if plans is not None:
            if client_tracer is not None:
                for fn, span in _CLIENT_CODEC.items():
                    client_tracer.wrap(rpc, fn, span)
            try:
                runs = drive(client, windows, plans)
            finally:
                if client_tracer is not None:
                    client_tracer.restore()
            statz = client.stats_raw()
            rss = server.peak_rss_mb()
    finally:
        if client is not None:
            client.stop()
        code = server.stop() if server is not None else None
    return {"setup_s": first.done - server.started, "first": first, "runs": runs, "statz": statz,
            "rss": rss, "exit": code}


def _inproc_ms(artifact, windows, dtype, sizes) -> dict[int, float]:
    """Median in-process ``Forecaster.predict`` time per batch size, in ``dtype``."""
    fc = Forecaster.load(artifact, served_dtype=dtype)
    out = {}
    for size in sorted(sizes):
        batch = np.stack(windows[:size])
        fc.predict(batch)
        samples = []
        for _ in range(7):
            begin = time.perf_counter()
            fc.predict(batch)
            samples.append(time.perf_counter() - begin)
        out[size] = 1e3 * median(samples)
    return out


def _report_outputs(result: Result, figures: list[dict]) -> None:
    result.report("max_dev_vs_float32_ref", max(f["dev32"] for f in figures), "crimes")
    result.report("outputs_equal_float32_ref", sum(f["exact32"] for f in figures), "windows")


def run_serve(seed: int, seconds: float, trace: bool, work) -> Result:
    sys.setswitchinterval(SWITCH_INTERVAL_S)
    dataset = load_city(CITY, seed=seed, rows=GRID, cols=GRID, num_days=DAYS)
    windows = [dataset.tensor[:, day - WINDOW : day, :] for day in range(WINDOW, dataset.num_days)]
    artifact = work / "serve.npz"
    save_artifact(dataset, seed, artifact)
    ref = _reference(artifact, windows, "float32")
    result = Result("serve", "float32")

    if not trace:
        instances = []
        for i in range(SETUP_SPAWNS):
            plans = None
            if i >= SETUP_SPAWNS - TRAFFIC_SERVERS:
                plans = make_plans(seed * SETUP_SPAWNS + i, seconds / TRAFFIC_SERVERS, len(windows))
            instances.append(_serve_once(_cli(artifact), windows, plans, work / f"server{i}.log"))
        for run in instances:
            _check(run["first"], ref)
        result.phase("setup", len(instances), sum(not run["first"].ok for run in instances))
        codes = [run["exit"] for run in instances]
        result.check("servers shut down cleanly on SIGINT", all(code == 0 for code in codes), f"exit codes {codes}")
        traffic = [run for run in instances if run["runs"]]
        figures = [_summarize(result, run["runs"], ref, f"server {k} ") for k, run in enumerate(traffic, 1)]
        _report_outputs(result, figures)
        for phase in RATES:
            result.report(f"p50_{phase}_ms", 1e3 * median(f[phase]["p50"] for f in figures), "ms")
            pooled = sorted(x for f in figures for x in f[phase]["latency"])
            q = tail_quantile(len(pooled))
            if q != 99:
                result.report(f"p99_{phase}_ms", f"n/a ({len(pooled)} requests < 1000)", "")
            if q:
                result.report(f"p{q}_{phase}_ms", 1e3 * nearest_rank(pooled, q), "ms")
        max_rps = median(f["saturation"]["rps"] for f in figures)
        result.report("max_rps", max_rps, "req/s")
        result.report("statz_mean_batch", median(run["statz"].get("mean_batch", 0.0) for run in traffic), "windows")
        result.metrics = {
            "setup_s": median(run["setup_s"] for run in instances),
            "peak_rss_mb": median(run["rss"] for run in traffic),
            "throughput_per_s": max_rps,
            "latency_ms": 1e3 * median(f["light"]["p50"] for f in figures),
        }
        return result

    # Alternating untraced and traced servers (the order flips each pair),
    # each pair on its own seeded traffic.
    pairs, passes, per_server, all_figures, codes = [], [], [], [], []
    for pair in range(TRACE_PAIRS):
        plans_seed = seed * TRACE_PAIRS + pair
        sat = {}
        for traced in pass_order(pair):
            label = f"pair {pair + 1} {'traced' if traced else 'untraced'} "
            spans_path = work / f"spans{pair}.json" if traced else None
            client_tracer = Tracer() if traced else None
            run = _serve_once(
                _cli(artifact, spans_path), windows, make_plans(plans_seed, seconds / TRACE_PAIRS, len(windows)),
                work / f"pair{pair}-{int(traced)}.log", client_tracer,
            )
            _check(run["first"], ref)
            result.phase(label + "setup", 1, not run["first"].ok)
            figures = _summarize(result, run["runs"], ref, label)
            all_figures.append(figures)
            sat[traced] = figures["saturation"]
            codes.append(run["exit"])
            if traced and spans_path.exists():
                served = json.loads(spans_path.read_text())
                per_server.append(_serve_layers(served, client_tracer.export(), run["runs"]))
                start, end = run["runs"][PHASES[0][0]]["start"], run["runs"][PHASES[-1][0]]["end"]
                passes.append((served["spans"], start, end))
        untraced_rps, traced_sat = sat[False]["rps"], sat[True]
        pairs.append((traced_sat["n"] / untraced_rps, traced_sat["elapsed"], traced_sat["n"]))
    _report_outputs(result, all_figures)

    workers_run, workers_spans = _serve_workers(result, seed, seconds, artifact, windows, ref, work)
    codes.append(workers_run["exit"])
    result.check(
        "every server shut down cleanly on SIGINT and the traced ones returned their spans",
        all(code == 0 for code in codes) and len(per_server) == TRACE_PAIRS and workers_spans is not None,
        f"exit codes {codes}",
    )
    if len(per_server) != TRACE_PAIRS or workers_spans is None:
        return result
    # Medians over the traced servers; counts are summed.
    result.layers = {
        name: (sum if unit == "count" else median)([server[name] for server in per_server])
        for name, (unit, _better) in layers.PER_LAYER.items()
    }
    result.layers.update(_workers_layers(result, workers_spans, workers_run["runs"], artifact, windows, ref))
    result.layers.update(layers.trace_metrics(result, pairs, passes))
    return result


def _serve_workers(result: Result, seed: int, seconds: float, artifact, windows, ref, work) -> tuple:
    """Drive the traced server started with ``WORKERS_FLAGS``: warm-up, then a closed loop."""
    spans_path = work / "spans-workers.json"
    duration = WORKERS_SHARE * seconds
    plans = {"saturation": (duration, _closed_plan(np.random.default_rng(seed), len(windows), duration))}
    run = _serve_once(_cli(artifact, spans_path, WORKERS_FLAGS), windows, plans, work / "workers.log")
    _check(run["first"], ref)
    result.phase("workers setup", 1, not run["first"].ok)
    _summarize(result, run["runs"], ref, "workers ")
    return run, json.loads(spans_path.read_text()) if spans_path.exists() else None


def _workers_layers(result: Result, served: dict, runs: dict, artifact, windows, ref) -> dict:
    """Round trip per batch through the worker processes, and its tax over
    an in-process predict of the same size, in the dtype the workers
    compute in: of ``ref`` (float32) and a native float64 reference, the
    one their responses equal bitwise most often."""
    view = layers.SpanView(served["spans"], since=runs["saturation"]["start"])
    roundtrips = view.select("workers.roundtrip")
    if not roundtrips:
        return {}
    refs = {"float32": ref, "float64": _reference(artifact, windows, None)}
    equal = dict.fromkeys(refs, 0)
    for req in runs["saturation"]["requests"]:
        for dtype, want in refs.items():
            equal[dtype] += sum(np.array_equal(g, w) for g, w in zip(req.outputs or [], want[list(req.idx)]))
    dtype = max(equal, key=equal.get)
    result.report("workers.computes_in", dtype, "")
    for name, count in equal.items():
        result.report(f"workers.outputs_equal_{name}_ref", count, "windows")
    sizes = [int(view.spans[i][5]) for i in roundtrips]
    inproc = _inproc_ms(artifact, windows, None if dtype == "float64" else dtype, set(sizes))
    times = [1e3 * (view.spans[i][2] - view.spans[i][1]) for i in roundtrips]
    return {
        "workers.roundtrip_ms": float(np.mean(times)),
        "workers.tax_ms": float(np.mean([t - inproc[size] for t, size in zip(times, sizes)])),
        "workers.deaths": served["deaths"],
    }


def _serve_layers(traced: dict, client_spans, runs) -> dict:
    """Per-layer metrics of one traced server, over its traffic phases."""
    start = runs[PHASES[0][0]]["start"]
    spans = traced["spans"]
    view, full = layers.SpanView(spans, since=start), layers.SpanView(spans)
    out = layers.empty_layers()
    out.update(layers.core_metrics(view))
    out.update(layers.api_metrics(view, full))
    out.update(layers.arena_metrics(traced["arena"]))
    out["data.synth_s"] = full.total(full.select("data.synth"))
    out["pool.load_ms"] = 1e3 * full.total(full.select("pool.load"))
    handles = [h for h in traced["handles"] if h[0] >= start]
    out.update(layers.service_metrics(view, handles, traced["max_batch"]))
    out["service.retried"] = traced["service"]["retried"]
    out["service.failed"] = traced["service"]["failed"]
    edge = traced["edge"]
    out["net.errors"] = edge["bad_requests"] + edge["disconnects"] + edge["errors"]

    requests = [r for run in runs.values() for r in run["requests"]]
    loads = view.select("net.codec.loads")
    server_codec = sum(view.total(view.select(name)) for name in _SERVER_CODEC)
    out["net.codec_ms"] = 1e3 * server_codec / max(1, len(loads))
    client_view = layers.SpanView(client_spans)
    client_codec = sum(client_view.total(client_view.select(name)) for name in _CLIENT_CODEC.values())
    out["remote.codec_ms"] = 1e3 * client_codec / max(1, len(requests))

    # Edge = single-window round trip minus what the service and both codecs account for.
    def mean(v: layers.SpanView, name: str, indices=None) -> float:
        indices = v.select(name) if indices is None else indices
        return v.total(indices) / len(indices) if indices else 0.0

    single_loads = [i for i in loads if _next_on_thread(spans, i) == "net.codec.predict_decode"]
    single_rtt = [r.done - r.sent for r in requests if r.ok and len(r.idx) == 1]
    single_service = [done - enqueued for enqueued, done, kind in handles if kind == "predict"]
    if single_rtt and single_service:
        out["net.edge_ms"] = 1e3 * (
            median(single_rtt) - median(single_service)
            - mean(view, "net.codec.loads", single_loads) - mean(view, "net.codec.predict_decode")
            - mean(view, "net.codec.predict_encode")
            - mean(client_view, "remote.codec.predict_encode") - mean(client_view, "remote.codec.predict_decode")
        )
    return out


def _next_on_thread(spans, i: int) -> str | None:
    """Name of the next span to complete on span ``i``'s thread."""
    thread = spans[i][4]
    for j in range(i + 1, len(spans)):
        if spans[j][4] == thread:
            return spans[j][0]
    return None
