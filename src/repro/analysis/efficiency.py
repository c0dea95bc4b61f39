"""Model efficiency study (paper Table V, RQ6).

Measures wall-clock seconds per training epoch for each compared model
under identical data budgets.  Absolute numbers are not comparable to the
paper's GPU server, but the *ranking* (which architectures are cheap or
expensive) is the reproducible claim.
"""

from __future__ import annotations

from ..api import REGISTRY, ExperimentBudget
from ..data.datasets import CrimeDataset
from ..training import Trainer, WindowDataset

__all__ = ["time_epoch", "run_efficiency_study", "EFFICIENCY_MODELS"]

# Table V's ten models.
EFFICIENCY_MODELS: tuple[str, ...] = (
    "STGCN",
    "DMSTGCN",
    "STtrans",
    "GMAN",
    "ST-MetaNet",
    "DeepCrime",
    "STSHN",
    "DCRNN",
    "STDN",
    "ST-HSL",
)


def time_epoch(model, dataset: CrimeDataset, budget: ExperimentBudget) -> float:
    """Seconds for one training epoch of ``model`` under ``budget``."""
    windows = WindowDataset(dataset, window=budget.window)
    trainer = Trainer(
        model,
        lr=budget.lr,
        weight_decay=budget.weight_decay,
        batch_size=budget.batch_size,
        seed=budget.seed,
    )
    return trainer.timed_epoch(windows, train_limit=budget.train_limit)


def run_efficiency_study(
    dataset: CrimeDataset,
    budget: ExperimentBudget,
    models: tuple[str, ...] = EFFICIENCY_MODELS,
    hidden: int = 8,
) -> dict[str, float]:
    """Per-epoch seconds per model — the Table V column for one city."""
    results: dict[str, float] = {}
    for name in models:
        model = REGISTRY.build(
            name, dataset=dataset, window=budget.window, hidden=hidden, seed=budget.seed
        )
        results[name] = time_epoch(model, dataset, budget)
    return results
