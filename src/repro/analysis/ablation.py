"""Ablation variants (paper Table IV and Figure 5).

Each named variant maps to a set of :class:`~repro.core.STHSLConfig`
switch overrides, passed to the registry's ST-HSL builder as
``Forecaster("ST-HSL", overrides=...)``.  The names match the paper's
rows exactly.
"""

from __future__ import annotations

from ..api import ExperimentBudget, Forecaster
from ..data.datasets import CrimeDataset

__all__ = ["MULTIVIEW_VARIANTS", "SSL_VARIANTS", "run_ablation"]

# Figure 5: multi-view spatial-temporal convolution ablations.
MULTIVIEW_VARIANTS: dict[str, dict] = {
    "w/o S-Conv": {"use_spatial_conv": False},
    "w/o T-Conv": {"use_temporal_conv": False},
    "w/o C-Conv": {"cross_category": False},
    "w/o Local": {
        # Removing the local encoder also removes the contrastive pairing
        # (it needs both views).
        "use_local": False,
        "use_contrastive": False,
    },
    "ST-HSL": {},
}

# Table IV: dual-stage self-supervised learning ablations.
SSL_VARIANTS: dict[str, dict] = {
    "w/o Hyper": {
        # No hypergraph at all -> no global branch, no SSL stages.
        "use_hypergraph": False,
        "use_global": False,
        "use_infomax": False,
        "use_contrastive": False,
    },
    "w/o GlobalTem": {"use_global_temporal": False},
    "w/o Infomax": {"use_infomax": False},
    "w/o ConL": {"use_contrastive": False},
    "w/o Global": {
        # Keep the hypergraph SSL machinery but predict from the local
        # encoder only (paper variant 5).
        "use_global": False,
        "use_contrastive": False,
    },
    "Fusion w/o ConL": {"fusion": True, "use_contrastive": False},
    "ST-HSL": {},
}


def run_ablation(
    dataset: CrimeDataset,
    variants: dict[str, dict],
    budget: ExperimentBudget,
) -> dict[str, dict[str, dict[str, float]]]:
    """Train and evaluate every variant; returns per-variant Table IV rows.

    Output: ``{variant: {category: {"mae": ..., "mape": ...}}}``.
    """
    return {
        name: Forecaster("ST-HSL", budget=budget, overrides=overrides)
        .fit(dataset)
        .evaluate(dataset)
        .per_category()
        for name, overrides in variants.items()
    }
