"""Rolling-origin (time-series) cross-validation folds.

The paper uses a single 7:1 temporal split; rolling-origin evaluation is
the standard stronger protocol for time series: train on an expanding
prefix, test on the next block, roll forward.  Useful for checking that
Table III orderings are not artefacts of one particular split.  Each
fold carries a re-split dataset, so evaluating a model on it is the
ordinary estimator path::

    results = [
        Forecaster(name, budget=budget).fit(fold.dataset).evaluate(fold.dataset)
        for fold in rolling_origin_folds(dataset, num_folds=3, test_block=10)
    ]
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..data.datasets import CrimeDataset
from ..data.splits import TemporalSplit

__all__ = ["RollingFold", "rolling_origin_folds"]


@dataclass(frozen=True)
class RollingFold:
    """One fold: train on days [0, train_end), test on the next block."""

    index: int
    dataset: CrimeDataset  # re-split view of the source dataset


def rolling_origin_folds(
    dataset: CrimeDataset,
    num_folds: int,
    test_block: int,
    min_train: int | None = None,
) -> Iterator[RollingFold]:
    """Yield expanding-window folds over a dataset's time axis.

    Fold ``k`` trains on days ``[0, B_k)`` and tests on
    ``[B_k, B_k + test_block)``, where the boundaries are evenly spaced so
    the last fold's test block ends at the final day.
    """
    total = dataset.num_days
    min_train = min_train if min_train is not None else total // 4
    last_boundary = total - test_block
    first_boundary = min_train
    if num_folds < 1:
        raise ValueError("num_folds must be >= 1")
    if last_boundary <= first_boundary:
        raise ValueError(
            f"not enough days ({total}) for test_block={test_block} with min_train={min_train}"
        )
    boundaries = np.linspace(first_boundary, last_boundary, num_folds).astype(int)
    for index, boundary in enumerate(boundaries):
        val = max(boundary // 8, 1)
        split = TemporalSplit(
            train_end=int(boundary - val),
            val_end=int(boundary),
            test_end=int(boundary + test_block),
        )
        # Trim the tensor to the fold horizon; z-stats from the fold's
        # training span only (no leakage across folds).
        trimmed = dataset.tensor[:, : split.test_end, :]
        config = dataset.config
        fold_config = config.scaled(config.rows, config.cols, split.test_end)
        fold_dataset = CrimeDataset(
            config=fold_config,
            grid=dataset.grid,
            tensor=trimmed,
            split=split,
            mu=float(split.slice_train(trimmed).mean()),
            sigma=float(split.slice_train(trimmed).std()) or 1.0,
        )
        yield RollingFold(index=index, dataset=fold_dataset)
