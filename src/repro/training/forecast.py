"""Multi-step forecasting by recursive rollout (extension feature).

The paper's task is single-step (predict day T+1).  Police-dispatch
planning often needs a multi-day outlook, so we extend any trained
single-step forecaster to an ``h``-day horizon by feeding each
(normalised) prediction back into the input window — the standard
recursive strategy for autoregressive forecasters.
"""

from __future__ import annotations

import numpy as np

from ..data.datasets import CrimeDataset
from .metrics import masked_mae, masked_mape
from .windows import WindowDataset

__all__ = ["recursive_forecast", "evaluate_horizon"]


def recursive_forecast(model, window: np.ndarray, horizon: int) -> np.ndarray:
    """Roll a single-step model forward ``horizon`` days.

    ``window`` is a normalised ``(R, W, C)`` history; the return value is
    ``(horizon, R, C)`` of normalised predictions, where prediction ``k``
    conditioned on the original history plus predictions ``0..k-1``.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    history = np.array(window, copy=True)
    outputs = []
    for _ in range(horizon):
        prediction = model.predict(history)
        outputs.append(prediction)
        # Slide the window: drop the oldest day, append the prediction.
        history = np.concatenate([history[:, 1:, :], prediction[:, None, :]], axis=1)
    return np.stack(outputs)


def evaluate_horizon(
    forecaster,
    dataset: CrimeDataset,
    horizon: int,
    split: str = "test",
) -> dict[int, dict[str, float]]:
    """Masked MAE/MAPE per forecast step of a fitted forecaster over a split.

    ``forecaster`` is a fitted :class:`~repro.api.Forecaster`.  As in its
    ``predict``, inputs are normalised and outputs denormalised with the
    forecaster's own statistics and window, so step 1 equals
    ``forecaster.evaluate(dataset, split).overall()`` whatever history
    ``dataset`` holds.  Only days with ``horizon`` subsequent ground-truth
    days inside the split contribute, so every step is evaluated on the
    same anchors.
    """
    forecaster.check_compatible(dataset)
    days = list(WindowDataset(dataset, window=forecaster.window)._days(split))
    anchors = [d for d in days if d + horizon - 1 <= days[-1]]
    if not anchors:
        raise ValueError(f"split {split!r} too short for horizon {horizon}")

    mu, sigma = forecaster.mu, forecaster.sigma
    normalized = (dataset.tensor - mu) / sigma
    per_step_preds: dict[int, list[np.ndarray]] = {k: [] for k in range(horizon)}
    per_step_targets: dict[int, list[np.ndarray]] = {k: [] for k in range(horizon)}
    for day in anchors:
        window = normalized[:, day - forecaster.window : day, :]
        rolled = recursive_forecast(forecaster.model, window, horizon)
        for k in range(horizon):
            per_step_preds[k].append(np.maximum(rolled[k] * sigma + mu, 0.0))
            per_step_targets[k].append(dataset.tensor[:, day + k, :])

    out: dict[int, dict[str, float]] = {}
    for k in range(horizon):
        pred = np.stack(per_step_preds[k])
        target = np.stack(per_step_targets[k])
        out[k + 1] = {"mae": masked_mae(pred, target), "mape": masked_mape(pred, target)}
    return out
