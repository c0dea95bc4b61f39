"""Sparsity robustness analysis (the paper's RQ3, Figure 6).

Shows the phenomenon the paper is built around: crime labels are sparse
and skewed, and prediction quality degrades on low-density regions.
Trains ST-HSL with and without its self-supervision stages and compares
their error on sparse-region cohorts.

Usage::

    python examples/sparse_region_analysis.py
"""

import numpy as np

from repro.analysis.visualization import ascii_heatmap, format_density_histogram, format_table
from repro.api import ExperimentBudget, Forecaster
from repro.data import density_degree, density_histogram, load_city


def main(rows: int = 6, cols: int = 6, num_days: int = 120,
         window: int = 14, epochs: int = 4, train_limit: int | None = 30) -> None:
    """Show the sparsity skew, then compare ST-HSL with and without SSL."""
    dataset = load_city("chicago", rows=rows, cols=cols, num_days=num_days, seed=0)
    budget = ExperimentBudget(
        window=window, epochs=epochs, train_limit=train_limit, batch_size=4, seed=0
    )

    # --- The sparsity phenomenon (Figure 1 analogue) -------------------
    hist = density_histogram(dataset.tensor)
    print("fraction of regions per density-degree bucket (cf. paper Fig. 1):")
    print(format_density_histogram(hist["edges"], hist["counts"], dataset.categories))

    density = density_degree(dataset.tensor)
    print("\nregion density-degree map (darker = denser crime sequence):")
    print(ascii_heatmap(density, dataset.grid.rows, dataset.grid.cols))

    # --- SSL on vs off on sparse cohorts (Figure 6 analogue) -----------
    variants = {
        "ST-HSL (full)": {},
        "no self-supervision": {"use_infomax": False, "use_contrastive": False},
    }
    cohort_metrics: dict[str, dict] = {}
    for label, overrides in variants.items():
        forecaster = Forecaster("ST-HSL", budget=budget, overrides=overrides).fit(dataset)
        cohort_metrics[label] = forecaster.evaluate(dataset).by_density(dataset.tensor)
        print(f"\ntrained: {label}")

    print("\nmasked MAE by region density cohort (cf. paper Fig. 6):")
    headers = ["variant", "density (0, .25]", "density (.25, .5]"]
    rows = []
    for label, by_density in cohort_metrics.items():
        cells = [label]
        for interval in ((0.0, 0.25), (0.25, 0.5)):
            cohort = by_density[interval]
            values = [m["mae"] for m in cohort.values() if np.isfinite(m["mae"])]
            cells.append(float(np.mean(values)) if values else float("nan"))
        rows.append(cells)
    print(format_table(headers, rows))
    print("\n(the paper's claim: the full model holds up better on sparse cohorts)")


if __name__ == "__main__":
    main()
