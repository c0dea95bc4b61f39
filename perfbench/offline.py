"""The offline workloads, run in this process the way a user script runs them.

``train``: ``Forecaster("ST-HSL").fit`` with the ``repro train`` defaults
(8x8 synthetic nyc, 150 days, window 14, dim 8, 32 hyperedges, 2 global
temporal layers, batch 4, train-limit 40, native float64), a fixed epoch
count and no early stopping, then ``evaluate`` on the test split.

``forecast``: ``Forecaster.load(artifact, served_dtype="float32")``, then
``predict_batch`` over every window of a 16x16 history in chunks of 32
(the chunk size ``Forecaster.evaluate`` uses).

A traced run alternates untraced and traced passes over the same work,
flipping the order every pair so that a drift in machine speed does not
land on one side, and reports the median per-pair tracing overhead.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import math
import re
import time
from dataclasses import replace

import numpy as np

import layers
from common import Result, median, peak_rss_mb, reset_peak_rss
from repro.api import ExperimentBudget, Forecaster
from repro.data import load_city
from spans import Tracer

CITY = "nyc"
DAYS = 150
WINDOW = 14
TRAIN_LIMIT = 40
#: ``repro train`` model defaults (``repro.cli._model_overrides``).
MODEL = {"hidden": 8, "overrides": {"num_hyperedges": 32, "num_global_temporal_layers": 2}}
TRAIN_GRID = 8
FORECAST_GRID = 16
CHUNK = 32
#: Sizes the fixed epoch count from ``--seconds`` (~1.8 s/epoch at 8x8 on 2 cores).
SECONDS_PER_EPOCH = 2.0
#: Train set-up is timed in blocks of this many back-to-back set-ups: two
#: blocks before the fit, one after every epoch, two after evaluate.
SETUP_BLOCK = 8
SETUP_EDGE_BLOCKS = 2
#: Forecast set-ups, spread evenly through the run.
FORECAST_SETUPS = 5
#: Untraced/traced pass pairs of a traced run.
TRACE_PAIRS = 3
#: f32-vs-f64 gate: mean |f32 - f64| / mean |f64| over the first chunk.
F32_REL_GATE = 1e-4

_EPOCH_LINE = re.compile(r"epoch \d+: loss=(\S+) val_mae=(\S+)")


def save_artifact(dataset, seed: int, path) -> None:
    """Save an artifact the way ``repro train --checkpoint`` does (no served_dtype).

    The weights are the seeded initial ones (a zero-epoch fit): inference
    cost does not depend on their values, and the run's time goes to the
    workload rather than to preparing its input.
    """
    fc = Forecaster("ST-HSL", budget=ExperimentBudget(window=WINDOW, epochs=0, seed=seed), **MODEL)
    fc.fit(dataset)
    fc.save(path)


def _digest(state: dict) -> str:
    digest = hashlib.sha256()
    for name in sorted(state):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(state[name]).tobytes())
    return digest.hexdigest()


def pass_order(pair: int) -> tuple[bool, bool]:
    """``traced`` flags of one pair's passes: untraced first on even pairs."""
    return (False, True) if pair % 2 == 0 else (True, False)


# ----------------------------------------------------------------------
# train
# ----------------------------------------------------------------------
class _EpochLog(io.StringIO):
    """The fit's verbose output; runs ``between()`` after each epoch line.

    The time ``between`` takes is kept in ``spent``, to be taken out of
    the fit's wall time.
    """

    def __init__(self, between=None):
        super().__init__()
        self.between = between
        self.spent = 0.0

    def write(self, text: str) -> int:
        written = super().write(text)
        if self.between is not None and text.startswith("epoch "):
            begin = time.perf_counter()
            self.between()
            self.spent += time.perf_counter() - begin
        return written


def _fit_and_evaluate(dataset, fc, between=None) -> dict:
    printed = _EpochLog(between)
    start = time.perf_counter()
    with contextlib.redirect_stdout(printed):
        fc.fit(dataset, verbose=True)
    fitted = time.perf_counter()
    evaluation = fc.evaluate(dataset)
    end = time.perf_counter()
    return {
        "start": start,
        "end": end,
        "fit_s": fitted - start - printed.spent,
        "history": [(float(loss), float(val)) for loss, val in _EPOCH_LINE.findall(printed.getvalue())],
        "test_mae": float(evaluation.overall()["mae"]),
        "weights": _digest(fc.model.state_dict()),
    }


def _train_phases(result: Result, run: dict, epochs: int, label: str = "") -> None:
    finite = sum(1 for loss, val in run["history"] if math.isfinite(loss) and math.isfinite(val))
    result.phase(f"{label}fit", epochs, epochs - finite, fit_s=run["fit_s"])
    result.phase(f"{label}evaluate", 1, 0 if math.isfinite(run["test_mae"]) else 1, test_mae=run["test_mae"])


def run_train(seed: int, seconds: float, trace: bool, work) -> Result:
    epochs = max(2, round(seconds / SECONDS_PER_EPOCH))
    budget = ExperimentBudget(
        window=WINDOW, epochs=epochs, train_limit=TRAIN_LIMIT, lr=1e-3, patience=None, seed=seed
    )
    synth = {"seed": seed, "rows": TRAIN_GRID, "cols": TRAIN_GRID, "num_days": DAYS}

    def setup():
        return load_city(CITY, **synth), Forecaster("ST-HSL", budget=budget, **MODEL)

    result = Result("train", "float64")
    if not trace:
        blocks = []

        def time_block():
            begin = time.perf_counter()
            for _ in range(SETUP_BLOCK):
                made = setup()
            blocks.append((time.perf_counter() - begin) / SETUP_BLOCK)
            return made

        # Set-up takes about 2 ms and a shared machine's speed drifts over
        # seconds, so the blocks are spread over the whole run: one after
        # every epoch, inside the fit (the fit's time excludes them).
        for _ in range(SETUP_EDGE_BLOCKS):
            dataset, fc = time_block()
        reset_peak_rss()
        run = _fit_and_evaluate(dataset, fc, between=time_block)
        for _ in range(SETUP_EDGE_BLOCKS):
            time_block()
        _train_phases(result, run, epochs)
        epoch_s = run["fit_s"] / epochs
        result.metrics = {
            "setup_s": median(blocks),
            "peak_rss_mb": peak_rss_mb(),
            "throughput_per_s": epochs * TRAIN_LIMIT / run["fit_s"],
            "latency_ms": 1e3 * epoch_s,
        }
        result.report("epoch_s", epoch_s, "s")
        result.report("test_mae", run["test_mae"], "crimes")
        result.report("epochs", epochs, "count")
        result.report("setup_blocks", len(blocks), "count")
        return result

    tracer = Tracer()
    dataset = tracer.call("data.synth", load_city, (CITY,), synth)
    # A one-epoch fit first, so no pass pays the process's first-fit
    # allocator growth.
    Forecaster("ST-HSL", budget=replace(budget, epochs=1), **MODEL).fit(dataset)
    pass_budget = replace(budget, epochs=max(2, round(epochs / TRACE_PAIRS)))
    runs, pairs, passes, arena = [], [], [], None
    for pair in range(TRACE_PAIRS):
        wall = {}
        for traced in pass_order(pair):
            gc.collect()
            fc = Forecaster("ST-HSL", budget=pass_budget, **MODEL)
            if traced:
                layers.install_training(tracer)
                layers.install_forecaster(tracer, fc)
            try:
                run = _fit_and_evaluate(dataset, fc)
            finally:
                tracer.restore()
            if traced:
                arena = fc.model.release_arena()
                passes.append((run["start"], run["end"]))
            _train_phases(result, run, pass_budget.epochs, f"pair {pair + 1} {'traced' if traced else 'untraced'} ")
            runs.append(run)
            wall[traced] = run["end"] - run["start"]
        pairs.append((wall[False], wall[True], 1))
    for key in ("history", "weights", "test_mae"):
        result.check(f"every pass's {key} equals the first pass's", all(run[key] == runs[0][key] for run in runs))

    spans = tracer.export()
    view = layers.SpanView(spans)
    result.layers = layers.empty_layers()
    result.layers.update(layers.core_metrics(view))
    result.layers.update(layers.api_metrics(view, view))
    result.layers.update(layers.arena_metrics(arena))
    result.layers.update(layers.training_metrics(view))
    result.layers["data.synth_s"] = view.total(view.select("data.synth"))
    result.layers.update(layers.trace_metrics(result, pairs, [(spans, start, end) for start, end in passes]))
    return result


# ----------------------------------------------------------------------
# forecast
# ----------------------------------------------------------------------
def _predict_chunks(fc, chunks, expected: dict, seconds: float | None = None, count: int | None = None) -> dict:
    """Whole passes through ``chunks`` until ``seconds`` are up (or ``count`` chunks).

    A chunk seen before must come out bitwise-equal to ``expected``;
    the first output of each chunk becomes its expectation.
    """
    times, done, windows, mismatched = [], 0, 0, 0
    start = time.perf_counter()
    stop = start + seconds if seconds is not None else math.inf
    while (count is None and (time.perf_counter() < stop or done % len(chunks))) or (
        count is not None and done < count
    ):
        index = done % len(chunks)
        begin = time.perf_counter()
        out = fc.predict_batch(chunks[index])
        times.append((len(chunks[index]), time.perf_counter() - begin))
        if index in expected:
            mismatched += not np.array_equal(out, expected[index])
        else:
            expected[index] = out
        done += 1
        windows += len(chunks[index])
    end = time.perf_counter()
    return {"start": start, "end": end, "chunks": done, "windows": windows, "mismatched": mismatched, "times": times}


def _unclamped(fc, chunk, batch_size: int) -> np.ndarray:
    """The forecaster's counts before ``predict`` floors them at zero.

    The gate compares these: a seeded untrained model can predict below
    zero everywhere, and then every floored output is 0 in both dtypes.
    """
    normalized = (chunk - fc.mu) / fc.sigma
    raw = np.concatenate(
        [fc.model.predict_batch(normalized[i : i + batch_size]) for i in range(0, len(chunk), batch_size)]
    )
    return raw * fc.sigma + fc.mu


def run_forecast(seed: int, seconds: float, trace: bool, work) -> Result:
    dataset = load_city(CITY, seed=seed, rows=FORECAST_GRID, cols=FORECAST_GRID, num_days=DAYS)
    windows = np.stack([dataset.tensor[:, day - WINDOW : day, :] for day in range(WINDOW, dataset.num_days)])
    chunks = [windows[i : i + CHUNK] for i in range(0, len(windows), CHUNK)]
    artifact = work / "forecast.npz"
    save_artifact(dataset, seed, artifact)
    # The gate's reference: the native float64 forecaster on the first
    # chunk, in stacks of 8 to keep its arena small.
    reference = _unclamped(Forecaster.load(artifact), chunks[0], 8)
    gc.collect()

    result = Result("forecast", "float32")

    def gate(fc) -> None:
        rel = float(np.mean(np.abs(_unclamped(fc, chunks[0], CHUNK) - reference)) / np.mean(np.abs(reference)))
        result.report("f32_vs_f64_rel_error", rel, "ratio")
        result.check("float32 within gate of native float64", rel <= F32_REL_GATE, f"{rel:.3g} <= {F32_REL_GATE:g}")

    if not trace:
        reset_peak_rss()
        setup_times, firsts, runs = [], [], []
        expected: dict = {}
        # Each set-up serves the predictions that follow it, so the set-ups
        # are spread through the run instead of caught at one moment.
        for i in range(FORECAST_SETUPS):
            fc = None
            gc.collect()
            begin = time.perf_counter()
            fc = Forecaster.load(artifact, served_dtype="float32")
            firsts.append(fc.predict_batch(chunks[0]))
            setup_times.append(time.perf_counter() - begin)
            expected.setdefault(0, firsts[0])
            if i == 0:
                gate(fc)
            runs.append(_predict_chunks(fc, chunks, expected, seconds=seconds / FORECAST_SETUPS))
        repeat_failures = sum(not np.array_equal(first, firsts[0]) for first in firsts)
        result.phase("setup", len(firsts), repeat_failures)
        result.phase(
            "predict", sum(run["chunks"] for run in runs), sum(run["mismatched"] for run in runs),
            windows=sum(run["windows"] for run in runs),
        )
        times = [t for run in runs for t in run["times"]]
        full = [t for size, t in times if size == CHUNK]
        # Median over whole passes through the history, so a transient
        # stall on a shared machine moves one pass, not the figure.
        passes = [times[i : i + len(chunks)] for i in range(0, len(times), len(chunks))]
        windows_per_s = median([len(windows) / sum(t for _, t in p) for p in passes])
        result.metrics = {
            "setup_s": median(setup_times),
            "peak_rss_mb": peak_rss_mb(),
            "throughput_per_s": windows_per_s,
            "latency_ms": 1e3 * median(full),
        }
        result.report("windows_per_s", windows_per_s, "windows/s")
        result.report("chunk_p50_ms", 1e3 * median(full), "ms")
        result.report("passes", len(passes), "count")
        return result

    tracer = Tracer()
    tracer.wrap(Forecaster, "load", "api.load")
    try:
        fc = Forecaster.load(artifact, served_dtype="float32")
    finally:
        tracer.restore()
    expected = {0: fc.predict_batch(chunks[0])}
    gate(fc)
    count, pairs, passes, mismatched = None, [], [], 0
    for pair in range(TRACE_PAIRS):
        wall = {}
        for traced in pass_order(pair):
            if traced:
                layers.install_model(tracer, fc.model)
                layers.install_forecaster(tracer, fc)
            try:
                run = _predict_chunks(fc, chunks, expected, seconds=None if count else seconds / TRACE_PAIRS, count=count)
            finally:
                tracer.restore()
            count = run["chunks"]
            if traced:
                passes.append((run["start"], run["end"]))
            mismatched += run["mismatched"]
            result.phase(f"pair {pair + 1} {'traced' if traced else 'untraced'} predict", run["chunks"], run["mismatched"])
            wall[traced] = run["end"] - run["start"]
        pairs.append((wall[False], wall[True], count))
    arena = fc.model.release_arena()
    result.check("traced chunks bitwise-equal untraced", mismatched == 0)

    spans = tracer.export()
    view = layers.SpanView(spans)
    result.layers = layers.empty_layers()
    result.layers.update(layers.core_metrics(view))
    result.layers.update(layers.api_metrics(view, view))
    result.layers.update(layers.arena_metrics(arena))
    result.layers.update(layers.trace_metrics(result, pairs, [(spans, start, end) for start, end in passes]))
    return result
