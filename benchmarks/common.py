"""Shared configuration for the benchmark harness.

Every bench regenerates one paper table or figure at reduced scale: a
6x6-region grid, ~100-day span, matched budgets.
The whole protocol is described by :class:`repro.api.RunSpec` values
(data + model + budget), so a bench row is "one spec, fitted and
evaluated as a :class:`repro.api.Forecaster`", the path ``repro train``
takes.  Paper reference values are printed next to measured ones so the
*shape* comparison (orderings, relative gaps) is visible in the bench
output.
"""

from __future__ import annotations

from functools import lru_cache

from repro.api import DataSpec, ExperimentBudget, RunSpec
from repro.data import CrimeDataset

# Reduced-scale geometry (paper: NYC 16x16x730, CHI 14x12x731).
ROWS, COLS, NUM_DAYS = 6, 6, 100
WINDOW = 14

# One identical budget for every trained model in a comparison.
TRAIN_BUDGET = ExperimentBudget(window=WINDOW, epochs=5, train_limit=32, batch_size=4, seed=0)
QUICK_BUDGET = ExperimentBudget(window=WINDOW, epochs=2, train_limit=16, batch_size=4, seed=0)


def data_spec(city: str) -> DataSpec:
    """Reduced-scale data description for a city."""
    return DataSpec(city=city, rows=ROWS, cols=COLS, num_days=NUM_DAYS, seed=0)


def run_spec(city: str, model: str, budget: ExperimentBudget = TRAIN_BUDGET, hidden: int = 8) -> RunSpec:
    """One bench row: ``model`` on ``city`` under the shared budget."""
    return RunSpec(model=model, data=data_spec(city), budget=budget, hidden=hidden)


@lru_cache(maxsize=None)
def dataset(city: str) -> CrimeDataset:
    """Reduced-scale synthetic dataset for a city (cached across benches)."""
    return data_spec(city).load()


def print_header(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)
