"""Tracked perf benchmark: training, inference and serving throughput.

Measures, on the reduced-scale benchmark geometry (6x6 regions x 100
days, the DESIGN.md §5 protocol): training windows/sec and epoch
wall-clock for ST-HSL at batch sizes {1, 4, 16} plus the per-sample
fallback path and the float32 compute mode; inference predictions/sec
for the graph-building forward, the per-sample no-grad fast path, and
the batched fast path under a reusable buffer arena; and end-to-end
serving requests/sec through ``repro.serving`` (pool + micro-batching
service, float32 serving mode) at client concurrency 1/4/16 for worker
pools of 1 and 2 threads, against sequential per-sample baselines on
the graph path (the naive serving baseline) and the no-grad path.
The ``network`` section measures the same artifact behind the three
deployment shapes (in-process service, HTTP loopback via the
``NetworkServer`` + ``RemoteForecastService`` client SDK, and a
``WorkerPool`` of forked worker processes) at client concurrency 4.
Writes ``BENCH_perf.json`` (schema ``repro.perf/v6``) at the repo root
so future PRs have a perf trajectory to defend.

Run from the repo root:

    PYTHONPATH=src python benchmarks/perf/run_all.py

The ``seed_reference`` block records the pre-batching implementation
(commit 162b557, per-sample loop with gradient accumulation, einsum convs
and ``np.add.at`` scatters) measured on this container: 1.465 s/epoch at
batch_size=16 under the identical budget (best-of-8, re-measured from a
``git worktree`` of the seed commit when container throughput drifted
~20% below the original 1.223 s measurement).  Re-measure it by checking
out the seed commit and timing ``Trainer._train_epoch`` with the same
geometry; pass ``--seed-seconds`` to override.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT / "src") not in sys.path:  # allow running without PYTHONPATH
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis import measure_perf, write_perf_json
from repro.analysis.experiment import ExperimentBudget
from repro.analysis.visualization import format_table
from repro.data import load_city

# One-time measurement of the seed implementation on this container (see
# module docstring for the re-measurement recipe).
SEED_REFERENCE = {
    "commit": "162b557",
    "description": "per-sample loop, einsum convs, np.add.at col2im",
    "batch_size": 16,
    "epoch_seconds": 1.465,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=6)
    parser.add_argument("--cols", type=int, default=6)
    parser.add_argument("--num-days", type=int, default=100)
    parser.add_argument("--window", type=int, default=14)
    parser.add_argument("--train-limit", type=int, default=32)
    parser.add_argument("--batch-sizes", type=int, nargs="+", default=[1, 4, 16])
    parser.add_argument("--reps", type=int, default=5, help="best-of-N timing repetitions")
    parser.add_argument("--inference-windows", type=int, default=64)
    parser.add_argument("--inference-batch", type=int, default=4)
    parser.add_argument("--serving-concurrency", type=int, nargs="+", default=[1, 4, 16])
    parser.add_argument("--serving-max-batch", type=int, default=4)
    parser.add_argument("--serving-workers", type=int, nargs="+", default=[1, 2])
    parser.add_argument(
        "--network-concurrency",
        type=int,
        default=4,
        help="client threads for the network deployment-shape comparison",
    )
    parser.add_argument(
        "--network-process-workers",
        type=int,
        default=2,
        help="forked worker processes for the network section's pool column",
    )
    parser.add_argument("--seed-seconds", type=float, default=SEED_REFERENCE["epoch_seconds"])
    parser.add_argument("--no-float32", action="store_true", help="skip the float32 mode column")
    parser.add_argument("--out", type=Path, default=REPO_ROOT / "BENCH_perf.json")
    args = parser.parse_args(argv)

    dataset = load_city(
        "nyc", rows=args.rows, cols=args.cols, num_days=args.num_days, seed=0
    )
    budget = ExperimentBudget(window=args.window, train_limit=args.train_limit, seed=0)
    seed_reference = dict(SEED_REFERENCE, epoch_seconds=args.seed_seconds)

    payload = measure_perf(
        dataset,
        budget,
        batch_sizes=tuple(args.batch_sizes),
        reps=args.reps,
        include_float32=not args.no_float32,
        seed_reference=seed_reference,
        inference_windows=args.inference_windows,
        inference_batch=args.inference_batch,
        serving_concurrency=tuple(args.serving_concurrency),
        serving_max_batch=args.serving_max_batch,
        serving_workers=tuple(args.serving_workers),
        network_concurrency=args.network_concurrency,
        network_process_workers=args.network_process_workers,
    )
    write_perf_json(payload, args.out)

    headers = ["Mode", "dtype", "Batch", "Epoch (s)", "Windows/s"]
    rows = [
        [e["mode"], e["dtype"], e["batch_size"], e["epoch_seconds"], e["windows_per_sec"]]
        for e in payload["training"]["modes"]
    ]
    print("training")
    print(format_table(headers, rows, float_format="{:.3f}"))
    print()
    headers = ["Path", "dtype", "Batch", "Seconds", "Predictions/s"]
    rows = [
        [e["path"], e["dtype"], e["batch_size"], e["seconds"], e["predictions_per_sec"]]
        for e in payload["inference"]["modes"]
    ]
    print(f"inference ({payload['inference']['num_windows']} windows)")
    print(format_table(headers, rows, float_format="{:.3f}"))
    print()
    serving = payload["serving"]
    headers = ["Mode", "Workers", "Concurrency", "Requests/s", "Mean batch", "p95 (ms)"]
    rows = [
        [f"sequential/{e['path']}", "-", 1, e["requests_per_sec"], 1, "-"]
        for e in serving["sequential"]
    ] + [
        [
            "service",
            e["workers"],
            e["concurrency"],
            e["requests_per_sec"],
            e["mean_batch"],
            e["latency_p95_ms"],
        ]
        for e in serving["service"]
    ]
    print(
        f"serving ({serving['num_requests']} requests, max_batch="
        f"{serving['max_batch']}, served_dtype={serving['artifact']['served_dtype']})"
    )
    print(format_table(headers, rows, float_format="{:.2f}"))
    print()
    network = payload["network"]
    headers = ["Mode", "Transport", "Workers", "Concurrency", "Requests/s"]
    rows = [
        [e["mode"], e["transport"], e["workers"], e["concurrency"], e["requests_per_sec"]]
        for e in network["modes"]
    ]
    print(
        f"network ({network['num_requests']} requests, "
        f"rpc_schema={network['rpc_schema']})"
    )
    print(format_table(headers, rows, float_format="{:.2f}"))
    print()
    for section in ("training", "inference", "serving", "network"):
        for name, value in payload[section]["speedups"].items():
            print(f"{section}.{name}: {value:.2f}x")
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
