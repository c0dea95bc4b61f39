"""Figure 4 — prediction-error visualisation over the urban space.

Reproduces the paper's six-model comparison (ST-HSL, DMSTGCN, STSHN,
STtrans, DeepCrime, ST-ResNet): per-region MAPE over the test period,
rendered as ASCII heat maps of the city grid (darker = higher error).
"""

import numpy as np
import pytest

from repro.analysis import ascii_heatmap

from common import QUICK_BUDGET, dataset, print_header, run_spec

MODELS = ("ST-HSL", "DMSTGCN", "STSHN", "STtrans", "DeepCrime", "ST-ResNet")


def _error_maps(city: str):
    data = dataset(city)
    maps = {}
    for name in MODELS:
        evaluation = run_spec(city, name, QUICK_BUDGET).forecaster().fit(data).evaluate(data)
        maps[name] = evaluation.per_region_mape()
    return maps


@pytest.mark.benchmark(group="fig4")
@pytest.mark.parametrize("city", ["nyc", "chicago"])
def test_fig4_error_visualisation(benchmark, city):
    maps = benchmark.pedantic(_error_maps, args=(city,), rounds=1, iterations=1)
    data = dataset(city)
    print_header(f"Figure 4 — per-region MAPE maps, {city.upper()}")
    for name, values in maps.items():
        mean_err = np.nanmean(values)
        print()
        print(ascii_heatmap(values, data.grid.rows, data.grid.cols, title=f"{name} (mean MAPE {mean_err:.3f})"))
        assert np.isfinite(mean_err)
