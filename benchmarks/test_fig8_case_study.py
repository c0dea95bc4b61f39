"""Figure 8 — case study of hyperedge-region dependencies (RQ5).

Trains ST-HSL, samples hyperedges, extracts each hyperedge's top-3 most
relevant regions per day (the 4x3 matrices of Figure 8), renders
hyperedge dependency maps over the grid, and quantifies the paper's
qualitative claim: regions connected through a hyperedge share more
similar crime patterns than random region pairs.
"""

import numpy as np
import pytest

from repro.analysis import HyperedgeCaseStudy, ascii_heatmap, functionality_alignment
from repro.api import Forecaster
from repro.data import SyntheticCrimeGenerator, poi_for_generator
from repro.training import WindowDataset

from common import QUICK_BUDGET, WINDOW, dataset, print_header


def _case_study():
    data = dataset("chicago")  # the paper's Figure 8 uses Chicago
    model = Forecaster("ST-HSL", budget=QUICK_BUDGET).fit(data).model
    windows = WindowDataset(data, window=WINDOW)
    sample = next(windows.samples("test"))
    return HyperedgeCaseStudy.from_model(model, sample.window, data.tensor, k=3), data


@pytest.mark.benchmark(group="fig8")
def test_fig8_hyperedge_case_study(benchmark):
    study, data = benchmark.pedantic(_case_study, rounds=1, iterations=1)
    print_header("Figure 8 — hyperedge case study, CHICAGO")
    rng = np.random.default_rng(0)
    sampled_edges = rng.choice(study.relevance.shape[1], size=4, replace=False)
    print("\nTop-3 regions per hyperedge over 4 consecutive days:")
    for edge in sampled_edges:
        rows = [
            f"  e{edge:<3d} day {day}: regions {[int(r) for r in study.top_regions[day, edge]]}"
            for day in range(min(4, study.top_regions.shape[0]))
        ]
        print("\n".join(rows))
    print("\nHyperedge dependency map (day 0, first sampled edge):")
    heat = study.dependency_map(0, int(sampled_edges[0]), data.num_categories)
    print(ascii_heatmap(heat, data.grid.rows, data.grid.cols))
    print(
        f"\nCrime-pattern correlation: hyperedge-mates={study.mate_correlation:.3f}"
        f" vs random pairs={study.random_correlation:.3f}"
    )
    # The paper's qualitative claim, made quantitative.
    assert study.mate_correlation > study.random_correlation

    # External-source validation: hyperedge-mates share *functionality*
    # (the paper overlays POI labels; we use the synthetic POI substrate).
    generator = SyntheticCrimeGenerator(data.config, seed=0)
    poi = poi_for_generator(generator, seed=0)
    mate_sim, random_sim = functionality_alignment(
        poi, study.top_regions, np.random.default_rng(1)
    )
    print(
        f"Region-functionality similarity: hyperedge-mates={mate_sim:.3f}"
        f" vs random pairs={random_sim:.3f}"
    )
    assert mate_sim > random_sim
