"""Extra ablations beyond the paper's tables.

1. InfoNCE temperature τ — the paper's gradient analysis (§III-F) implies
   τ controls hard-negative weighting; we sweep it.
2. Infomax corruption strategy — region shuffle (paper) vs Gaussian
   feature noise.
3. Learnable vs static hypergraph incidence — the core delta between
   ST-HSL and the STSHN baseline, isolated.
"""

import numpy as np
import pytest

from repro.analysis.visualization import format_table
from repro.api import Forecaster

from common import QUICK_BUDGET, dataset, print_header


def _evaluate(data, model="ST-HSL", **overrides):
    """Fit ``model`` under the quick budget and evaluate it on the test split."""
    return Forecaster(model, budget=QUICK_BUDGET, overrides=overrides).fit(data).evaluate(data)


def _temperature_sweep():
    data = dataset("nyc")
    return {tau: _evaluate(data, temperature=tau).overall() for tau in (0.1, 0.5, 1.0, 2.0)}


@pytest.mark.benchmark(group="extras")
def test_infonce_temperature_sweep(benchmark):
    results = benchmark.pedantic(_temperature_sweep, rounds=1, iterations=1)
    print_header("Extra ablation — InfoNCE temperature τ (NYC, overall)")
    rows = [[str(tau), m["mae"], m["mape"]] for tau, m in results.items()]
    print(format_table(["tau", "MAE", "MAPE"], rows))
    assert all(np.isfinite(m["mae"]) for m in results.values())


def _corruption_sweep():
    data = dataset("nyc")
    return {
        strategy: _evaluate(data, corruption=strategy).overall()
        for strategy in ("shuffle", "noise")
    }


@pytest.mark.benchmark(group="extras")
def test_infomax_corruption_strategy(benchmark):
    results = benchmark.pedantic(_corruption_sweep, rounds=1, iterations=1)
    print_header("Extra ablation — infomax corruption strategy (NYC, overall)")
    rows = [[name, m["mae"], m["mape"]] for name, m in results.items()]
    print(format_table(["corruption", "MAE", "MAPE"], rows))
    assert all(np.isfinite(m["mae"]) for m in results.values())


def _hyperedge_sparsity_interaction():
    """How hyperedge count interacts with region sparsity: the global
    channel should matter most for sparse regions (they have the least
    local signal to learn from)."""
    data = dataset("nyc")
    out = {}
    for num_hyperedges in (4, 32):
        evaluation = _evaluate(data, num_hyperedges=num_hyperedges)
        cohorts = evaluation.by_density(data.tensor)
        sparse = np.nanmean(
            [m["mae"] for m in cohorts[(0.0, 0.25)].values()]
        )
        out[num_hyperedges] = {
            "overall": evaluation.overall()["mae"],
            "sparse_cohort": float(sparse),
        }
    return out


@pytest.mark.benchmark(group="extras")
def test_hyperedge_count_vs_sparsity(benchmark):
    results = benchmark.pedantic(_hyperedge_sparsity_interaction, rounds=1, iterations=1)
    print_header("Extra ablation — hyperedge count x region sparsity (NYC, MAE)")
    rows = [
        [str(h), m["overall"], m["sparse_cohort"]] for h, m in results.items()
    ]
    print(format_table(["hyperedges", "overall", "sparse cohort"], rows))
    assert all(np.isfinite(m["overall"]) for m in results.values())


def _hypergraph_comparison():
    data = dataset("nyc")
    return {
        # Learnable incidence (ST-HSL without SSL, isolating the structure).
        "learnable incidence (no SSL)": _evaluate(
            data, use_infomax=False, use_contrastive=False
        ).overall(),
        # Full ST-HSL (learnable incidence + dual-stage SSL).
        "learnable incidence + SSL": _evaluate(data).overall(),
        # Static incidence (STSHN).
        "static incidence (STSHN)": _evaluate(data, "STSHN").overall(),
    }


@pytest.mark.benchmark(group="extras")
def test_learnable_vs_static_hypergraph(benchmark):
    results = benchmark.pedantic(_hypergraph_comparison, rounds=1, iterations=1)
    print_header("Extra ablation — hypergraph structure (NYC, overall)")
    rows = [[name, m["mae"], m["mape"]] for name, m in results.items()]
    print(format_table(["variant", "MAE", "MAPE"], rows))
    assert all(np.isfinite(m["mae"]) for m in results.values())
