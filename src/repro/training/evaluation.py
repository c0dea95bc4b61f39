"""Test-set evaluation: per-category, per-region and per-density metrics.

:meth:`repro.api.Forecaster.evaluate` returns an :class:`EvaluationResult`
for one split; it produces everything the paper's evaluation section
consumes:

* Table III — per-category masked MAE/MAPE averaged over test days;
* Figure 4 — per-region MAPE maps;
* Figure 6 — metrics restricted to sparse-region cohorts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.density import SPARSE_BINS, group_regions_by_density
from .metrics import masked_mae, masked_mape

__all__ = ["EvaluationResult"]


@dataclass
class EvaluationResult:
    """Stacked test-set predictions and targets (both in case counts)."""

    predictions: np.ndarray  # (D, R, C)
    targets: np.ndarray  # (D, R, C)
    categories: tuple[str, ...]

    # ------------------------------------------------------------------
    def per_category(self) -> dict[str, dict[str, float]]:
        """Table III rows: masked MAE / MAPE per crime category."""
        out: dict[str, dict[str, float]] = {}
        for index, name in enumerate(self.categories):
            pred = self.predictions[:, :, index]
            target = self.targets[:, :, index]
            out[name] = {
                "mae": masked_mae(pred, target),
                "mape": masked_mape(pred, target),
            }
        return out

    def overall(self) -> dict[str, float]:
        return {
            "mae": masked_mae(self.predictions, self.targets),
            "mape": masked_mape(self.predictions, self.targets),
        }

    def per_region_mape(self) -> np.ndarray:
        """Figure 4: per-region MAPE over all test days and categories.

        Regions with no crime in the test period are NaN.
        """
        num_regions = self.predictions.shape[1]
        values = np.full(num_regions, np.nan)
        for region in range(num_regions):
            values[region] = masked_mape(
                self.predictions[:, region, :], self.targets[:, region, :]
            )
        return values

    def by_density(
        self,
        full_tensor: np.ndarray,
        bins: tuple[tuple[float, float], ...] = SPARSE_BINS,
    ) -> dict[tuple[float, float], dict[str, dict[str, float]]]:
        """Figure 6: per-category metrics within each density cohort.

        ``full_tensor`` is the complete ``X[R, T, C]`` used to compute
        region density degrees.
        """
        groups = group_regions_by_density(full_tensor, bins)
        out: dict[tuple[float, float], dict[str, dict[str, float]]] = {}
        for interval, regions in groups.items():
            if regions.size == 0:
                out[interval] = {name: {"mae": float("nan"), "mape": float("nan")} for name in self.categories}
                continue
            cohort: dict[str, dict[str, float]] = {}
            for index, name in enumerate(self.categories):
                pred = self.predictions[:, regions, index]
                target = self.targets[:, regions, index]
                cohort[name] = {
                    "mae": masked_mae(pred, target),
                    "mape": masked_mape(pred, target),
                }
            out[interval] = cohort
        return out
