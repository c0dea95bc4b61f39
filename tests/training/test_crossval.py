"""Rolling-origin cross-validation tests."""

import numpy as np
import pytest

from repro.api import ExperimentBudget, Forecaster
from repro.data import load_city
from repro.training import rolling_origin_folds

DATASET = load_city("nyc", rows=4, cols=4, num_days=120, seed=0)


class TestFolds:
    def test_fold_count(self):
        folds = list(rolling_origin_folds(DATASET, num_folds=3, test_block=10))
        assert len(folds) == 3
        assert [f.index for f in folds] == [0, 1, 2]

    def test_expanding_training_spans(self):
        folds = list(rolling_origin_folds(DATASET, num_folds=3, test_block=10))
        boundaries = [f.dataset.split.val_end for f in folds]
        assert boundaries == sorted(boundaries)
        assert boundaries[0] < boundaries[-1]

    def test_last_fold_reaches_end(self):
        folds = list(rolling_origin_folds(DATASET, num_folds=3, test_block=10))
        assert folds[-1].dataset.split.test_end == DATASET.num_days

    def test_test_blocks_have_requested_length(self):
        for fold in rolling_origin_folds(DATASET, num_folds=3, test_block=10):
            split = fold.dataset.split
            assert split.test_end - split.val_end == 10

    def test_fold_stats_use_fold_training_span_only(self):
        fold = next(rolling_origin_folds(DATASET, num_folds=2, test_block=10))
        split = fold.dataset.split
        expected_mu = fold.dataset.tensor[:, : split.train_end].mean()
        assert fold.dataset.mu == pytest.approx(float(expected_mu))

    def test_insufficient_days_raise(self):
        with pytest.raises(ValueError):
            list(rolling_origin_folds(DATASET, num_folds=2, test_block=200))

    def test_invalid_fold_count(self):
        with pytest.raises(ValueError):
            list(rolling_origin_folds(DATASET, num_folds=0, test_block=10))


class TestFoldEvaluation:
    def test_returns_one_result_per_fold(self):
        """A fold evaluates through the estimator, one result per fold."""
        budget = ExperimentBudget(window=8)
        results = [
            Forecaster("HA", budget=budget).fit(fold.dataset).evaluate(fold.dataset)
            for fold in rolling_origin_folds(DATASET, num_folds=3, test_block=10)
        ]
        assert len(results) == 3
        for result in results:
            assert result.predictions.shape[0] == 10
            assert np.isfinite(result.overall()["mae"])
