"""``repro.training`` — trainer, metrics, windowing and evaluation."""

from .crossval import RollingFold, rolling_origin_folds
from .evaluation import EvaluationResult
from .forecast import evaluate_horizon, recursive_forecast
from .interface import ForecastModel
from .metrics import mae, mape, masked_mae, masked_mape, metric_frame, rmse
from .trainer import EpochStats, Trainer, TrainResult
from .windows import WindowBatch, WindowDataset, WindowSample

__all__ = [
    "ForecastModel",
    "Trainer",
    "TrainResult",
    "EpochStats",
    "WindowDataset",
    "WindowSample",
    "WindowBatch",
    "EvaluationResult",
    "recursive_forecast",
    "evaluate_horizon",
    "RollingFold",
    "rolling_origin_folds",
    "mae",
    "mape",
    "masked_mae",
    "masked_mape",
    "rmse",
    "metric_frame",
]
