"""Per-layer metrics: where each repo module's public seams are wrapped,
and how the spans recorded there become the metrics of the traced run.

A layer is a repo module.  Every metric is reported by every traced
run; a layer the workload bypasses reads 0 (see perfbench/README.md for
which workloads bypass which layers).
"""

from __future__ import annotations

import importlib
from bisect import bisect_right

import numpy as np

from common import median, nearest_rank, tail_quantile
from spans import Tracer, covered_share

#: Per-layer metrics in report order: ``name -> (unit, better)``.
PER_LAYER = {
    "core.embedding_ms": ("ms", "lower"),
    "core.spatial_conv.conv_ms": ("ms", "lower"),
    "core.spatial_conv.epilogue_ms": ("ms", "lower"),
    "core.temporal_conv.conv_ms": ("ms", "lower"),
    "core.temporal_conv.epilogue_ms": ("ms", "lower"),
    "core.hypergraph_ms": ("ms", "lower"),
    "core.global_temporal_ms": ("ms", "lower"),
    "core.head_ms": ("ms", "lower"),
    "core.glue_ms": ("ms", "lower"),
    "core.forward_ms": ("ms", "lower"),
    "core.conv_gflops": ("GFLOP/s", "higher"),
    "nn.arena.hit_ratio": ("ratio", "higher"),
    "nn.arena.pooled_mb": ("MB", "lower"),
    "api.load_ms": ("ms", "lower"),
    "api.predict_overhead_ms": ("ms", "lower"),
    "data.synth_s": ("s", "lower"),
    "training.data_ms": ("ms", "lower"),
    "training.forward_ms": ("ms", "lower"),
    "training.loss_ms": ("ms", "lower"),
    "training.backward_ms": ("ms", "lower"),
    "training.optim_ms": ("ms", "lower"),
    "training.validate_ms": ("ms", "lower"),
    "pool.load_ms": ("ms", "lower"),
    "service.queue_wait_p50_ms": ("ms", "lower"),
    "service.queue_wait_p99_ms": ("ms", "lower"),
    "service.compute_ms": ("ms", "lower"),
    "service.batch_size": ("windows", "higher"),
    "service.batch_fill": ("ratio", "higher"),
    "service.retried": ("count", "lower"),
    "service.failed": ("count", "lower"),
    "net.codec_ms": ("ms", "lower"),
    "net.edge_ms": ("ms", "lower"),
    "net.errors": ("count", "lower"),
    "remote.codec_ms": ("ms", "lower"),
    "workers.roundtrip_ms": ("ms", "lower"),
    "workers.tax_ms": ("ms", "lower"),
    "workers.deaths": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.unattributed_share": ("ratio", "lower"),
}

_CORE_STAGES = {
    "core.embedding_ms": "core.embedding",
    "core.spatial_conv.conv_ms": "core.spatial_conv.conv",
    "core.spatial_conv.epilogue_ms": "core.spatial_conv.epilogue",
    "core.temporal_conv.conv_ms": "core.temporal_conv.conv",
    "core.temporal_conv.epilogue_ms": "core.temporal_conv.epilogue",
    "core.hypergraph_ms": "core.hypergraph",
    "core.global_temporal_ms": "core.global_temporal",
    "core.head_ms": "core.head",
}
_CONVS = ("core.spatial_conv.conv", "core.temporal_conv.conv")


# ----------------------------------------------------------------------
# Seams
# ----------------------------------------------------------------------
def _conv_flops(conv):
    """FLOPs of one conv call, computed from the input and weight shapes."""
    out_channels, *kernel_in = conv.weight.shape  # (C_out, C_in, *kernel)
    macs_per_output = int(np.prod(kernel_in))
    dilation = getattr(conv, "dilation", 1)

    def note(args, _kwargs):
        shape = args[0].shape  # (N, C_in, *spatial)
        positions = 1
        for size, k in zip(shape[2:], kernel_in[1:]):
            positions *= (size + 2 * conv.padding - dilation * (k - 1) - 1) // conv.stride + 1
        return 2.0 * shape[0] * out_channels * positions * macs_per_output

    return note


def install_model(tracer: Tracer, model) -> None:
    """Core seams: ``forward`` of the model's public submodules and ``forward_batch``."""
    tracer.wrap(model, "forward_batch", "core.forward_batch")
    tracer.wrap(model, "predict_batch", "api.model_predict")
    tracer.wrap(model.embedding, "forward", "core.embedding")
    for layer in model.spatial_encoder.layers:
        tracer.wrap(layer, "forward", "core.spatial_conv.epilogue")
        tracer.wrap(layer.conv, "forward", "core.spatial_conv.conv", note=_conv_flops(layer.conv))
    for layer in model.temporal_encoder.layers:
        tracer.wrap(layer, "forward", "core.temporal_conv.epilogue")
        tracer.wrap(layer.conv, "forward", "core.temporal_conv.conv", note=_conv_flops(layer.conv))
    tracer.wrap(model.hypergraph, "forward", "core.hypergraph")
    tracer.wrap(model.global_temporal, "forward", "core.global_temporal")
    tracer.wrap(model.global_head, "forward", "core.head")


def install_forecaster(tracer: Tracer, forecaster) -> None:
    """API seams: ``Forecaster.predict``/``predict_batch`` of one forecaster."""
    tracer.wrap(forecaster, "predict", "api.forecaster")
    tracer.wrap(forecaster, "predict_batch", "api.forecaster")


def install_training(tracer: Tracer) -> None:
    """Training seams, on every ``Trainer`` that ``Forecaster.fit`` builds.

    ``Forecaster.fit`` constructs its ``Trainer`` (and the model) inside
    the call, so the seams go in through the ``Trainer`` name it looks
    up: the real class still builds the trainer, then the model's core
    seams and the trainer's are wrapped before ``fit`` runs.  ``Tensor``
    has ``__slots__``, so ``backward`` is the rest of each step.
    """
    forecaster_module = importlib.import_module("repro.api.forecaster")
    nn = importlib.import_module("repro.nn")
    real_trainer = forecaster_module.Trainer

    def build(model, *args, **kwargs):
        trainer = real_trainer(model, *args, **kwargs)
        install_model(tracer, model)
        tracer.wrap(model, "loss", "training.loss")
        tracer.wrap(trainer, "validate", "training.validate")
        tracer.wrap(trainer.optimizer, "step", "training.optim")
        tracer.wrap(trainer.optimizer, "zero_grad", "training.optim")
        fit = trainer.fit

        def traced_fit(windows, *fit_args, **fit_kwargs):
            tracer.wrap_iterator(windows, "train_batches", "training.data")
            return tracer.call("training.fit", fit, (windows, *fit_args), fit_kwargs)

        tracer.replace(trainer, "fit", traced_fit)
        return trainer

    tracer.replace(forecaster_module, "Trainer", build)
    tracer.wrap(nn, "clip_grad_norm", "training.optim")


# ----------------------------------------------------------------------
# Spans -> metrics
# ----------------------------------------------------------------------
class SpanView:
    """Totals over exported spans; ``since`` keeps spans that start after it."""

    def __init__(self, spans: list[list], since: float | None = None):
        self.spans = spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _thread, _note in spans:
            if parent >= 0:
                child[parent] += end - start
        self.self_time = [end - start - child[i] for i, (_n, start, end, *_rest) in enumerate(spans)]
        self.kept = [i for i, span in enumerate(spans) if since is None or span[1] >= since]

    def _inside(self, i: int, ancestor: str) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == ancestor:
                return True
            parent = self.spans[parent][3]
        return False

    def select(self, name: str, inside: str | None = None, parent: str | None = None) -> list[int]:
        found = []
        for i in self.kept:
            span = self.spans[i]
            if span[0] != name:
                continue
            if inside is not None and not self._inside(i, inside):
                continue
            if parent is not None and (span[3] < 0 or self.spans[span[3]][0] != parent):
                continue
            found.append(i)
        return found

    def total(self, indices: list[int]) -> float:
        return sum(self.spans[i][2] - self.spans[i][1] for i in indices)

    def self_total(self, indices: list[int]) -> float:
        return sum(self.self_time[i] for i in indices)

    def notes(self, indices: list[int]) -> float:
        return sum(self.spans[i][5] or 0.0 for i in indices)


def empty_layers() -> dict[str, float]:
    return {name: 0.0 for name in PER_LAYER}


def core_metrics(view: SpanView) -> dict[str, float]:
    """Self time per ``forward_batch`` call of each model stage."""
    forwards = view.select("core.forward_batch")
    if not forwards:
        return {}
    calls = len(forwards)
    out = {
        key: 1e3 * view.self_total(view.select(name, inside="core.forward_batch")) / calls
        for key, name in _CORE_STAGES.items()
    }
    out["core.glue_ms"] = 1e3 * view.self_total(forwards) / calls
    out["core.forward_ms"] = 1e3 * view.total(forwards) / calls
    convs = [i for name in _CONVS for i in view.select(name, inside="core.forward_batch")]
    conv_time = view.total(convs)
    out["core.conv_gflops"] = view.notes(convs) / conv_time / 1e9 if conv_time else 0.0
    return out


def api_metrics(view: SpanView, loads_view: SpanView) -> dict[str, float]:
    """``Forecaster.load`` time and the estimator's own share of each predict."""
    out = {}
    loads = loads_view.select("api.load")
    if loads:
        out["api.load_ms"] = 1e3 * loads_view.total(loads) / len(loads)
    chunks = view.select("api.model_predict", parent="api.forecaster")
    if chunks:
        out["api.predict_overhead_ms"] = 1e3 * view.self_total(view.select("api.forecaster")) / len(chunks)
    return out


def arena_metrics(arena) -> dict[str, float]:
    """Hit ratio and pooled bytes of the arena ``model.release_arena()`` returns."""
    if arena is None:
        return {}
    stats = arena.stats() if hasattr(arena, "stats") else arena
    requests = stats["hits"] + stats["misses"]
    return {
        "nn.arena.hit_ratio": stats["hits"] / requests if requests else 0.0,
        "nn.arena.pooled_mb": stats["nbytes"] / 2**20,
    }


def training_metrics(view: SpanView) -> dict[str, float]:
    """Per optimizer step (validation: per epoch) times of the training loop."""
    steps = len(view.select("training.loss", parent="training.fit"))
    epochs = view.select("training.validate")
    if not steps or not epochs:
        return {}
    per_step = lambda indices: 1e3 * view.total(indices) / steps  # noqa: E731
    return {
        "training.data_ms": per_step(view.select("training.data")),
        "training.forward_ms": per_step(view.select("core.forward_batch", parent="training.fit")),
        "training.loss_ms": per_step(view.select("training.loss", parent="training.fit")),
        "training.optim_ms": per_step(view.select("training.optim")),
        "training.backward_ms": 1e3 * view.self_total(view.select("training.fit")) / steps,
        "training.validate_ms": 1e3 * view.total(epochs) / len(epochs),
    }


def trace_metrics(result, pairs: list[tuple], passes: list[tuple]) -> dict[str, float]:
    """Tracing overhead from alternating passes, and the share no span covers.

    ``pairs`` holds ``(untraced_s, traced_s, work)`` per pair of passes:
    wall times over the same ``work`` (units of work, such as requests).
    The overhead is the median per-pair difference.  It is marked
    unresolved when it is smaller than the range of the untraced passes'
    rates, which is reported with it.  ``passes`` holds ``(spans, start,
    end)`` of each traced pass, over which the unattributed share is taken.
    """
    pct = median(100.0 * (traced / untraced - 1.0) for untraced, traced, _work in pairs)
    rates = [work / untraced for untraced, _traced, work in pairs]
    noise = 100.0 * (max(rates) - min(rates)) / median(rates)
    result.report("trace.pairs", len(pairs), "count")
    result.report("trace.untraced_range_pct", noise, "%")
    result.report(
        "trace.overhead_resolved",
        "yes" if abs(pct) > noise else "no: smaller than the untraced passes' range",
        "",
    )
    total = sum(end - start for _spans, start, end in passes)
    covered = sum(covered_share(spans, start, end) * (end - start) for spans, start, end in passes)
    return {
        "trace.overhead_s": median(traced - untraced for untraced, traced, _work in pairs),
        "trace.overhead_pct": pct,
        "trace.unattributed_share": 1.0 - covered / total,
    }


def service_metrics(view: SpanView, handles: list, max_batch: int) -> dict[str, float]:
    """Queue wait per request and compute per micro-batch, from the service seams.

    ``handles`` are ``(enqueued_at, done_at, kind)`` of the ``submit``
    handles; a request's batch is the latest backend call that ended
    before the request completed and started after it was enqueued.
    """
    computes = sorted(view.select("service.compute"), key=lambda i: view.spans[i][2])
    if not computes:
        return {}
    ends = [view.spans[i][2] for i in computes]
    waits = []
    for enqueued, done, _kind in handles:
        j = bisect_right(ends, done) - 1
        while j >= 0 and view.spans[computes[j]][1] < enqueued:
            j -= 1
        if j >= 0:
            waits.append(view.spans[computes[j]][1] - enqueued)
    waits.sort()
    sizes = [view.spans[i][5] for i in computes]
    batch = float(np.mean(sizes))
    tail = tail_quantile(len(waits))
    return {
        "service.queue_wait_p50_ms": 1e3 * nearest_rank(waits, 50),
        "service.queue_wait_p99_ms": 1e3 * nearest_rank(waits, tail or 100),
        "service.compute_ms": 1e3 * view.total(computes) / len(computes),
        "service.batch_size": batch,
        "service.batch_fill": batch / max_batch,
    }
