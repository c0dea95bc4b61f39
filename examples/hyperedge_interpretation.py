"""Hyperedge interpretation (the paper's RQ5 case study, Figure 8).

Trains ST-HSL, then inspects the learned hypergraph: which regions each
hyperedge binds together, how those dependencies evolve day by day, and
whether hyperedge-mates really share crime patterns.

Usage::

    python examples/hyperedge_interpretation.py
"""

import numpy as np

from repro.analysis import HyperedgeCaseStudy, functionality_alignment
from repro.analysis.visualization import ascii_heatmap
from repro.api import ExperimentBudget, Forecaster
from repro.data import SyntheticCrimeGenerator, load_city, poi_for_generator
from repro.training import WindowDataset


def main(rows: int = 6, cols: int = 6, num_days: int = 120,
         window: int = 14, epochs: int = 3, train_limit: int | None = 30) -> None:
    """Train ST-HSL, then inspect its learned hyperedges at the given scale."""
    dataset = load_city("chicago", rows=rows, cols=cols, num_days=num_days, seed=0)
    budget = ExperimentBudget(
        window=window, epochs=epochs, train_limit=train_limit, batch_size=4, seed=0
    )

    model = Forecaster("ST-HSL", budget=budget).fit(dataset).model
    print(f"trained ST-HSL ({model.num_parameters():,} parameters)")

    windows = WindowDataset(dataset, window=budget.window)
    sample = next(windows.samples("test"))
    study = HyperedgeCaseStudy.from_model(model, sample.window, dataset.tensor, k=3)

    rng = np.random.default_rng(1)
    edges = rng.choice(study.relevance.shape[1], size=4, replace=False)

    print("\ntop-3 most relevant regions per hyperedge, per day (cf. Fig. 8):")
    for edge in edges:
        print(f"  hyperedge e{int(edge)}:")
        for day in range(min(4, study.top_regions.shape[0])):
            regions = [int(r) for r in study.top_regions[day, edge]]
            print(f"    day {day}: regions {regions}")

    print("\nhyperedge dependency maps over the city grid (day 0):")
    for edge in edges[:2]:
        heat = study.dependency_map(0, int(edge), dataset.num_categories)
        print()
        print(ascii_heatmap(heat, dataset.grid.rows, dataset.grid.cols, title=f"e{int(edge)}"))

    print("\nground-truth crime distribution (same day, for comparison):")
    truth = dataset.tensor[:, sample.day, :].sum(axis=1)
    print(ascii_heatmap(truth, dataset.grid.rows, dataset.grid.cols))

    print(
        f"\ncrime-pattern correlation: hyperedge-mates={study.mate_correlation:.3f}"
        f" vs random region pairs={study.random_correlation:.3f}"
    )
    if study.mate_correlation > study.random_correlation:
        print("=> regions bound by a hyperedge share similar crime patterns,")
        print("   reproducing the paper's Figure 8 observation.")

    # External validation against region functionality (the paper
    # overlays real POI labels; we use the synthetic POI substrate).
    generator = SyntheticCrimeGenerator(dataset.config, seed=0)
    poi = poi_for_generator(generator, seed=0)
    mate_sim, random_sim = functionality_alignment(
        poi, study.top_regions, np.random.default_rng(2)
    )
    print(
        f"\nregion-functionality (POI) similarity: hyperedge-mates={mate_sim:.3f}"
        f" vs random pairs={random_sim:.3f}"
    )
    if mate_sim > random_sim:
        print("=> hyperedge-mates also share functionality (parks, restaurant")
        print("   zones, shopping centres), matching the paper's external check.")


if __name__ == "__main__":
    main()
