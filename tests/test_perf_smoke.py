"""Smoke tests for the tracked perf harness (tier-1, < 30 s).

Runs one tiny throughput measurement through the same code path as
``benchmarks/perf/run_all.py`` and validates the ``repro.perf/v6``
schema (training + inference + serving + network sections), so schema
or harness breakage is caught by the default suite rather than at the
next manual bench run.  Also guards the *committed* ``BENCH_perf.json``
against regression: if a future bench run lands numbers below the
trajectory recorded by earlier PRs, the suite fails instead of silently
shipping a slowdown.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import (
    PERF_SCHEMA,
    measure_perf,
    validate_perf_payload,
    write_perf_json,
)
from repro.analysis.experiment import ExperimentBudget
from repro.data import load_city

REPO_ROOT = Path(__file__).resolve().parents[1]

# Regression floors for the committed BENCH_perf.json: the speedups each
# earlier PR recorded on this container, less ~10% timing-noise margin.
# A bench re-run that lands below a floor is a real regression, not noise.
TRACKED_SPEEDUP_FLOORS = {
    "training": {
        "batched_top_vs_seed": 2.9,  # PR 1: 3.24x
        "batched_top_float32_vs_seed": 4.6,  # PR 2: 5.11x
    },
    "inference": {
        "batched_vs_graph": 2.0,  # PR 3: 2.3x (float64)
        # PR 3 acceptance: the fast path >= 3x vs the graph-building
        # predict baseline (float32 serving mode, like the training
        # headline batched_top_float32_vs_seed).
        "batched_float32_vs_graph": 3.0,
    },
    "serving": {
        # PR 4 acceptance: the service at concurrency 4 >= 2x the
        # sequential per-sample loop on the graph path — the naive
        # serving baseline this repo's perf schema has always tracked
        # (PR 4 recorded ~3.3x).
        "service_conc4_vs_graph_baseline": 2.0,
        # Transparency metric vs the already-optimised no-grad loop:
        # the coalescing + served-dtype win alone (PR 4 recorded ~1.8x;
        # the micro-batched f32 path's ceiling vs a warm no-grad f64
        # loop is ~1.9x on the single-core bench container).
        "service_conc4_vs_sequential": 1.5,
    },
}


@pytest.mark.perf_smoke
def test_perf_smoke(tmp_path):
    dataset = load_city("nyc", rows=4, cols=4, num_days=60, seed=0)
    budget = ExperimentBudget(window=6, train_limit=4, seed=0)
    payload = measure_perf(
        dataset,
        budget,
        batch_sizes=(1, 2),
        reps=1,
        include_float32=True,
        seed_reference={"commit": "162b557", "epoch_seconds": 1.0},
        fast_alloc=False,  # leave the test runner's allocator untouched
        inference_windows=6,
        inference_batch=3,
        serving_concurrency=(1, 2),
        serving_max_batch=2,
        serving_workers=(1, 2),
        network_concurrency=2,
        network_process_workers=1,
    )

    validate_perf_payload(payload)
    assert payload["schema"] == PERF_SCHEMA
    training = {(e["mode"], e["dtype"], e["batch_size"]) for e in payload["training"]["modes"]}
    assert ("sequential", "float64", 2) in training
    assert ("batched", "float64", 1) in training
    assert ("batched", "float64", 2) in training
    assert ("batched", "float32", 2) in training
    assert all(e["windows_per_sec"] > 0 for e in payload["training"]["modes"])
    assert "batched_top_vs_seed" in payload["training"]["speedups"]

    inference = {(e["path"], e["batch_size"]) for e in payload["inference"]["modes"]}
    assert ("graph", 1) in inference
    assert ("no_grad", 1) in inference
    assert ("batched", 3) in inference
    assert payload["inference"]["num_windows"] == 6
    assert all(e["predictions_per_sec"] > 0 for e in payload["inference"]["modes"])
    for key in ("no_grad_vs_graph", "batched_vs_graph", "batched_vs_no_grad"):
        assert key in payload["inference"]["speedups"]

    serving = payload["serving"]
    assert serving["num_requests"] == 6
    assert serving["workers"] == [1, 2]
    assert {e["path"] for e in serving["sequential"]} == {"graph", "no_grad"}
    # Full sweep: every (workers, concurrency) cell is measured.
    assert [(e["workers"], e["concurrency"]) for e in serving["service"]] == [
        (1, 1), (1, 2), (2, 1), (2, 2),
    ]
    assert all(e["requests_per_sec"] > 0 for e in serving["service"])
    assert serving["artifact"]["served_dtype"] == "float32"
    # Headline floors stay pinned to the single-worker column.
    assert "service_conc2_vs_graph_baseline" in serving["speedups"]
    assert "service_conc2_workers2_vs_workers1" in serving["speedups"]

    network = payload["network"]
    assert network["num_requests"] == 6
    assert network["concurrency"] == 2
    assert network["rpc_schema"] == "repro.rpc/v1"
    # All three deployment shapes are measured on the same workload.
    assert [e["mode"] for e in network["modes"]] == [
        "local", "remote", "process_workers",
    ]
    assert all(e["requests_per_sec"] > 0 for e in network["modes"])
    process_entry = next(e for e in network["modes"] if e["mode"] == "process_workers")
    assert process_entry["workers"] == 1
    for key in ("remote_vs_local", "process_workers_vs_local"):
        assert network["speedups"][key] > 0

    out = tmp_path / "BENCH_perf.json"
    write_perf_json(payload, out)
    assert json.loads(out.read_text())["schema"] == PERF_SCHEMA


@pytest.mark.perf_smoke
def test_perf_schema_rejects_malformed():
    with pytest.raises(ValueError):
        validate_perf_payload({"schema": "nope"})
    with pytest.raises(ValueError, match="regenerate"):
        validate_perf_payload({"schema": "repro.perf/v1"})  # pre-v4 payloads
    with pytest.raises(ValueError, match="regenerate"):
        validate_perf_payload({"schema": "repro.perf/v2"})  # pre-serving payloads
    with pytest.raises(ValueError, match="regenerate"):
        validate_perf_payload({"schema": "repro.perf/v3"})  # pre-workers payloads
    with pytest.raises(ValueError, match="regenerate"):
        validate_perf_payload({"schema": "repro.perf/v4"})  # pre-kernels payloads
    with pytest.raises(ValueError, match="regenerate"):
        validate_perf_payload({"schema": "repro.perf/v5"})  # pre-network payloads
    with pytest.raises(ValueError):
        validate_perf_payload({"schema": PERF_SCHEMA, "geometry": {}, "training": {}})
    with pytest.raises(ValueError):
        validate_perf_payload(
            {
                "schema": PERF_SCHEMA,
                "geometry": {},
                "training": {"modes": [], "speedups": {}},
                "inference": {"modes": [], "speedups": {}},
            }
        )
    with pytest.raises(ValueError):
        validate_perf_payload(
            {
                "schema": PERF_SCHEMA,
                "geometry": {},
                "training": {
                    "modes": [{"mode": "batched", "dtype": "float64"}],
                    "speedups": {"x": 1.0},
                },
                "inference": {
                    "modes": [
                        {
                            "path": "graph",
                            "dtype": "float64",
                            "batch_size": 1,
                            "seconds": 1.0,
                            "predictions_per_sec": 1.0,
                        }
                    ],
                    "speedups": {"x": 1.0},
                },
            }
        )


@pytest.mark.perf_smoke
def test_committed_bench_matches_current_schema():
    """The checked-in BENCH_perf.json must always parse as current schema."""
    payload = json.loads((REPO_ROOT / "BENCH_perf.json").read_text())
    validate_perf_payload(payload)


@pytest.mark.perf_smoke
def test_committed_bench_speedups_hold_the_trajectory():
    """Regression guard: committed speedups may not drop below the floors
    recorded by earlier PRs (ROADMAP Performance trajectory)."""
    payload = json.loads((REPO_ROOT / "BENCH_perf.json").read_text())
    for section, floors in TRACKED_SPEEDUP_FLOORS.items():
        speedups = payload[section]["speedups"]
        for key, floor in floors.items():
            assert key in speedups, f"{section}.{key} missing from BENCH_perf.json"
            assert speedups[key] >= floor, (
                f"{section}.{key} = {speedups[key]}x dropped below the tracked "
                f"floor {floor}x — a perf regression (or a bench run on a "
                "different machine; re-measure the seed reference if so)"
            )
