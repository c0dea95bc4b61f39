"""Figure 6 — robustness to data sparsity (RQ3).

Evaluates six models separately on regions grouped by crime-density
degree ((0, 0.25] and (0.25, 0.5]), per category, as in the paper's
robustness study.
"""

import numpy as np
import pytest

from repro.analysis.visualization import format_table

from common import QUICK_BUDGET, dataset, print_header, run_spec

MODELS = ("ST-ResNet", "DeepCrime", "DMSTGCN", "STSHN", "GMAN", "ST-HSL")


def _by_density(city: str):
    data = dataset(city)
    out = {}
    for name in MODELS:
        evaluation = run_spec(city, name, QUICK_BUDGET).forecaster().fit(data).evaluate(data)
        out[name] = evaluation.by_density(data.tensor)
    return out


@pytest.mark.benchmark(group="fig6")
@pytest.mark.parametrize("city", ["nyc"])
def test_fig6_density_robustness(benchmark, city):
    results = benchmark.pedantic(_by_density, args=(city,), rounds=1, iterations=1)
    data = dataset(city)
    for interval in ((0.0, 0.25), (0.25, 0.5)):
        print_header(
            f"Figure 6 — density group ({interval[0]}, {interval[1]}], {city.upper()} (masked MAE)"
        )
        headers = ["Model"] + list(data.categories)
        rows = []
        for name in MODELS:
            cohort = results[name][interval]
            rows.append([name] + [cohort[c]["mae"] for c in data.categories])
        print(format_table(headers, rows))

    # Structural checks: both sparse cohorts exist and produce numbers for
    # at least one category (very sparse cohorts can be empty on some
    # categories — that is the phenomenon under study).
    for name in MODELS:
        values = [
            results[name][interval][c]["mae"]
            for interval in ((0.0, 0.25), (0.25, 0.5))
            for c in data.categories
        ]
        assert any(np.isfinite(v) for v in values)
