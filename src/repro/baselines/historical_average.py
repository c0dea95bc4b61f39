"""Historical-average reference forecaster.

Not one of the paper's fifteen baselines, but the canonical lower bar
for spatial-temporal forecasting: predict the mean of the history
window.  Used by tests as a sanity anchor and by benchmarks to verify
trained models beat a trivially-obtainable score.
"""

from __future__ import annotations

import numpy as np

from ..nn import Tensor
from .base import StatisticalBaseline

__all__ = ["HistoricalAverage"]


class HistoricalAverage(StatisticalBaseline):
    """Predict the mean of the last ``lookback`` days (all by default)."""

    def __init__(self, lookback: int | None = None):
        super().__init__()
        if lookback is not None and lookback < 1:
            raise ValueError("lookback must be positive")
        self.lookback = lookback

    def predict_series(self, series: np.ndarray) -> float:
        if self.lookback is not None:
            series = series[-self.lookback :]
        return float(np.mean(series))

    def forward(self, window: np.ndarray) -> Tensor:
        # Vectorised override: mean over the time axis.
        slice_ = window if self.lookback is None else window[:, -self.lookback :, :]
        return Tensor(slice_.mean(axis=1))
