"""Window construction, trainer, and evaluation integration tests."""

import numpy as np
import pytest

from repro.api import REGISTRY, ExperimentBudget, Forecaster
from repro.baselines import HistoricalAverage, SVR
from repro.data import load_city
from repro.training import Trainer, WindowDataset

DATASET = load_city("nyc", rows=4, cols=4, num_days=100, seed=0)


class TestWindowDataset:
    def test_window_too_large_raises(self):
        with pytest.raises(ValueError):
            WindowDataset(DATASET, window=DATASET.split.train_end + 1)

    def test_sample_shapes(self):
        windows = WindowDataset(DATASET, window=10)
        sample = next(windows.samples("train"))
        assert sample.window.shape == (16, 10, 4)
        assert sample.target.shape == (16, 4)
        assert sample.raw_target.shape == (16, 4)

    def test_window_precedes_target(self):
        windows = WindowDataset(DATASET, window=10)
        normalized = DATASET.normalized()
        for sample in list(windows.samples("train"))[:5]:
            assert np.array_equal(sample.window, normalized[:, sample.day - 10 : sample.day, :])
            assert np.array_equal(sample.target, normalized[:, sample.day, :])

    def test_split_day_ranges_are_disjoint(self):
        windows = WindowDataset(DATASET, window=10)
        train_days = {s.day for s in windows.samples("train")}
        val_days = {s.day for s in windows.samples("val")}
        test_days = {s.day for s in windows.samples("test")}
        assert not (train_days & val_days)
        assert not (val_days & test_days)
        assert max(train_days) < min(val_days) <= max(val_days) < min(test_days)

    def test_shuffled_train_limit(self):
        windows = WindowDataset(DATASET, window=10)
        rng = np.random.default_rng(0)
        batches = list(windows.train_batches(rng, 4, limit=7))
        assert [batch.size for batch in batches] == [4, 3]

    def test_shuffled_deterministic_by_rng(self):
        windows = WindowDataset(DATASET, window=10)
        days_a = [d for b in windows.train_batches(np.random.default_rng(5), 3, limit=10) for d in b.days]
        days_b = [d for b in windows.train_batches(np.random.default_rng(5), 4, limit=10) for d in b.days]
        assert days_a == days_b

    def test_denormalize_floors_at_zero(self):
        windows = WindowDataset(DATASET, window=10)
        values = np.full((2, 2), -100.0)
        assert np.all(windows.denormalize(values) == 0.0)

    def test_denormalize_roundtrip(self):
        windows = WindowDataset(DATASET, window=10)
        sample = next(windows.samples("test"))
        assert np.allclose(windows.denormalize(sample.target), sample.raw_target)


class TestTrainer:
    def test_svr_training_improves_validation(self):
        windows = WindowDataset(DATASET, window=10)
        model = SVR(window=10, num_categories=4, seed=0)
        trainer = Trainer(model, lr=0.01, batch_size=4, seed=0)
        before = trainer.validate(windows)
        result = trainer.fit(windows, epochs=5, train_limit=30)
        assert result.best_val_mae <= before
        assert len(result.history) == 5

    def test_early_stopping_respects_patience(self):
        windows = WindowDataset(DATASET, window=10)
        model = SVR(window=10, num_categories=4, seed=0)
        trainer = Trainer(model, lr=0.0, batch_size=4, seed=0)  # lr=0 -> no progress
        result = trainer.fit(windows, epochs=50, patience=2, train_limit=5)
        assert len(result.history) <= 5  # 1 initial + patience exceeded

    def test_best_state_restored(self):
        windows = WindowDataset(DATASET, window=10)
        model = SVR(window=10, num_categories=4, seed=0)
        trainer = Trainer(model, lr=0.05, batch_size=4, seed=0)
        result = trainer.fit(windows, epochs=4, train_limit=20)
        restored_val = trainer.validate(windows)
        assert restored_val == pytest.approx(result.best_val_mae, rel=1e-6)

    def test_timed_epoch_positive(self):
        windows = WindowDataset(DATASET, window=10)
        model = SVR(window=10, num_categories=4, seed=0)
        trainer = Trainer(model, seed=0)
        assert trainer.timed_epoch(windows, train_limit=5) > 0


def _ha_evaluation():
    """Test-split evaluation of a fitted historical-average forecaster."""
    return Forecaster("HA", budget=ExperimentBudget(window=10)).fit(DATASET).evaluate(DATASET)


class TestEvaluation:
    def test_result_shapes(self):
        result = _ha_evaluation()
        num_test = len(list(WindowDataset(DATASET, window=10).samples("test")))
        assert result.predictions.shape == (num_test, 16, 4)
        assert result.targets.shape == result.predictions.shape

    def test_per_category_keys(self):
        result = _ha_evaluation()
        assert set(result.per_category()) == set(DATASET.categories)

    def test_per_region_mape_shape(self):
        result = _ha_evaluation()
        assert result.per_region_mape().shape == (16,)

    def test_by_density_groups(self):
        result = _ha_evaluation()
        by_density = result.by_density(DATASET.tensor)
        assert set(by_density) == {(0.0, 0.25), (0.25, 0.5)}

    def test_historical_average_is_reasonable(self):
        """HA's masked MAE should be within a sane range on synthetic data
        (sanity anchor for the whole evaluation chain)."""
        result = _ha_evaluation()
        overall = result.overall()
        assert 0.1 < overall["mae"] < 5.0
        assert 0.1 < overall["mape"] < 1.5


class TestTrainingSeams:
    """The nesting perfbench's traced ``train`` run reads.

    perfbench wraps the model instance's ``forward_batch``, ``loss`` and
    ``predict_batch`` and the trainer's ``fit``, ``validate`` and optimizer
    ``step`` with timing spans (``perfbench/spans.Tracer.wrap``).
    ``perfbench/layers.training_metrics`` counts optimizer steps as the
    ``loss`` calls whose parent is ``fit``, and derives
    ``training.forward_ms`` and ``training.loss_ms`` from the
    ``forward_batch`` and ``loss`` calls with that parent.
    """

    def test_each_step_runs_one_forward_and_one_loss_under_fit(self):
        model = REGISTRY.build("ST-HSL", dataset=DATASET, window=6, hidden=4, seed=0)
        trainer = Trainer(model, batch_size=4, seed=0)
        calls = []  # (name, name of the enclosing spied call or None)
        stack = []

        def spy(owner, attr):
            target = getattr(owner, attr)

            def wrapper(*args, **kwargs):
                calls.append((attr, stack[-1] if stack else None))
                stack.append(attr)
                try:
                    return target(*args, **kwargs)
                finally:
                    stack.pop()

            setattr(owner, attr, wrapper)

        for attr in ("forward_batch", "loss", "predict_batch"):
            spy(model, attr)
        for owner, attr in ((trainer, "fit"), (trainer, "validate"), (trainer.optimizer, "step")):
            spy(owner, attr)
        trainer.fit(WindowDataset(DATASET, window=6), epochs=2, train_limit=8)

        steps = calls.count(("step", "fit"))
        assert steps == 4  # 2 epochs x 8 windows / batch 4
        under_fit = [call for call in calls if call[1] == "fit" and call[0] != "validate"]
        assert under_fit == [("forward_batch", "fit"), ("loss", "fit"), ("step", "fit")] * steps
        assert not [call for call in calls if call[1] in ("forward_batch", "loss")]
        predicts = [call for call in calls if call[0] == "predict_batch"]
        assert predicts and set(predicts) == {("predict_batch", "validate")}
        forwards = [call for call in calls if call[0] == "forward_batch"]
        assert forwards.count(("forward_batch", "predict_batch")) == len(predicts)
        assert len(forwards) == steps + len(predicts)
