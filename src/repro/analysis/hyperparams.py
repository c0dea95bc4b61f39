"""Hyperparameter impact study (paper Figure 7, RQ4).

Sweeps one knob at a time — hidden units, hyperedge count, kernel size,
number of local conv layers, number of global conv layers — keeping all
other parameters at defaults, exactly the protocol of §IV-E.  Each sweep
point is one ``Forecaster("ST-HSL", overrides={field: value})`` fitted
and evaluated under the shared budget.
"""

from __future__ import annotations

from ..api import ExperimentBudget, Forecaster
from ..data.datasets import CrimeDataset

__all__ = ["SWEEPS", "sweep_parameter", "run_hyperparameter_study"]

# Figure 7's five panels mapped to config fields.  Values are bench-scale
# analogues of the paper's ranges ({2^2..2^5} hidden units, {2^5..2^8}
# hyperedges, kernel {3,5,7,9}, local conv {1..4}, global conv {2..6}).
SWEEPS: dict[str, tuple[str, tuple]] = {
    "hidden_units": ("dim", (4, 8, 16, 32)),
    "hyperedges": ("num_hyperedges", (8, 16, 32, 64)),
    "kernel_size": ("kernel_size", (3, 5, 7)),
    "local_conv_layers": ("num_spatial_layers", (1, 2, 3, 4)),
    "global_conv_layers": ("num_global_temporal_layers", (1, 2, 3, 4)),
}


def sweep_parameter(
    dataset: CrimeDataset,
    field: str,
    values: tuple,
    budget: ExperimentBudget,
) -> dict:
    """Train ST-HSL for each value of ``field``; returns overall metrics.

    Output: ``{value: {"mae": ..., "mape": ...}}``.
    """
    results: dict = {}
    for value in values:
        overrides = {field: value}
        if field == "num_spatial_layers":
            # The paper varies both local conv stacks together.
            overrides["num_temporal_layers"] = value
        forecaster = Forecaster("ST-HSL", budget=budget, overrides=overrides).fit(dataset)
        results[value] = forecaster.evaluate(dataset).overall()
    return results


def run_hyperparameter_study(dataset: CrimeDataset, budget: ExperimentBudget) -> dict[str, dict]:
    """All Figure 7 panels: ``{panel: {value: {"mae", "mape"}}}``."""
    return {
        panel: sweep_parameter(dataset, field, values, budget)
        for panel, (field, values) in SWEEPS.items()
    }
