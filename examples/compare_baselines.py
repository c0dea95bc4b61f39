"""Baseline comparison: a miniature Table III.

Trains ST-HSL against a representative subset of the paper's fifteen
baselines (one per family: classical, CNN, GNN, attention, hypergraph)
under an identical budget and prints a ranked table.  Each run is
described by a :class:`repro.api.RunSpec` and fitted and evaluated as a
:class:`repro.api.Forecaster`, so every model — ST-HSL included —
resolves through the model registry and trains under the same budget.

Usage::

    python examples/compare_baselines.py [city]   # city: nyc | chicago
"""

import sys

import numpy as np

from repro.analysis.visualization import format_table
from repro.api import DataSpec, ExperimentBudget, RunSpec

# One representative per baseline family (run the full fifteen via
# `pytest benchmarks/test_table3_overall.py`).
MODELS = ("ARIMA", "SVM", "ST-ResNet", "STGCN", "DeepCrime", "STSHN", "ST-HSL")


def main(city: str = "nyc", rows: int = 6, cols: int = 6, num_days: int = 120,
         window: int = 14, epochs: int = 4, train_limit: int | None = 30) -> None:
    """Rank ``MODELS`` on ``city`` under one shared budget at the given scale."""
    base = RunSpec(
        data=DataSpec(city=city, rows=rows, cols=cols, num_days=num_days, seed=0),
        budget=ExperimentBudget(
            window=window, epochs=epochs, train_limit=train_limit, batch_size=4, seed=0
        ),
        hidden=8,
    )
    dataset = base.data.load()
    print(f"city={city}  regions={dataset.num_regions}  days={dataset.num_days}")

    scores: dict[str, dict] = {}
    for name in MODELS:
        forecaster = base.with_model(name).forecaster().fit(dataset)
        scores[name] = forecaster.evaluate(dataset).overall()
        print(f"trained {name:12s} MAE={scores[name]['mae']:.4f}")

    ranked = sorted(scores.items(), key=lambda kv: kv[1]["mae"])
    print("\nranking (overall masked MAE, lower is better):")
    rows = [[i + 1, name, s["mae"], s["mape"]] for i, (name, s) in enumerate(ranked)]
    print(format_table(["#", "model", "MAE", "MAPE"], rows))

    best = ranked[0][0]
    gap = scores[best]["mae"] / scores["ST-HSL"]["mae"]
    print(f"\nbest model: {best}  (ST-HSL relative gap: {gap:.3f})")
    assert all(np.isfinite(s["mae"]) for s in scores.values())


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "nyc")
