"""Multi-step recursive forecasting tests."""

import numpy as np
import pytest

from repro.api import ExperimentBudget, Forecaster
from repro.baselines import HistoricalAverage
from repro.data import load_city
from repro.training import evaluate_horizon, recursive_forecast

DATASET = load_city("nyc", rows=4, cols=4, num_days=100, seed=0)
HA = Forecaster("HA", budget=ExperimentBudget(window=10)).fit(DATASET)


class _LastValue:
    """Toy forecaster: predict yesterday's value (for exact rollout math)."""

    def predict(self, window):
        return window[:, -1, :].copy()


class TestRecursiveForecast:
    def test_output_shape(self):
        window = np.random.default_rng(0).standard_normal((16, 10, 4))
        out = recursive_forecast(HistoricalAverage(), window, horizon=5)
        assert out.shape == (5, 16, 4)

    def test_invalid_horizon(self):
        with pytest.raises(ValueError):
            recursive_forecast(HistoricalAverage(), np.zeros((2, 5, 1)), horizon=0)

    def test_last_value_model_propagates_constant(self):
        """A persistence model rolled forward repeats the last day."""
        window = np.random.default_rng(1).standard_normal((3, 6, 2))
        out = recursive_forecast(_LastValue(), window, horizon=4)
        for k in range(4):
            assert np.allclose(out[k], window[:, -1, :])

    def test_window_not_mutated(self):
        window = np.random.default_rng(2).standard_normal((3, 6, 2))
        original = window.copy()
        recursive_forecast(_LastValue(), window, horizon=3)
        assert np.array_equal(window, original)

    def test_rollout_feeds_predictions_back(self):
        """A model that adds one each step produces an increasing ramp."""

        class _PlusOne:
            def predict(self, window):
                return window[:, -1, :] + 1.0

        window = np.zeros((2, 4, 1))
        out = recursive_forecast(_PlusOne(), window, horizon=3)
        assert np.allclose(out[:, 0, 0], [1.0, 2.0, 3.0])


class TestEvaluateHorizon:
    def test_keys_are_steps(self):
        result = evaluate_horizon(HA, DATASET, horizon=3)
        assert list(result) == [1, 2, 3]
        for metrics in result.values():
            assert np.isfinite(metrics["mae"])

    def test_too_long_horizon_raises(self):
        with pytest.raises(ValueError):
            evaluate_horizon(HA, DATASET, horizon=10_000)

    def test_error_grows_or_holds_with_horizon(self):
        """For a persistence-style model on mean-reverting data, step-1
        error should not exceed distant-step error by a large factor —
        mostly a smoke check that steps are aligned correctly."""
        result = evaluate_horizon(HA, DATASET, horizon=4)
        maes = [result[k]["mae"] for k in (1, 2, 3, 4)]
        assert max(maes) < 10 * min(maes)

    def test_step_one_matches_evaluate_on_a_longer_history(self):
        """Inputs are scaled with the forecaster's statistics, not the
        evaluation dataset's: on a longer history (other mu/sigma) the
        T+1 metrics still equal ``Forecaster.evaluate``'s."""
        budget = ExperimentBudget(window=10, epochs=1, train_limit=4, seed=0)
        forecaster = Forecaster("ST-HSL", budget=budget, hidden=4).fit(DATASET)
        longer = load_city("nyc", rows=4, cols=4, num_days=130, seed=0)
        assert (longer.mu, longer.sigma) != (forecaster.mu, forecaster.sigma)
        step_one = evaluate_horizon(forecaster, longer, horizon=1)[1]
        assert step_one == forecaster.evaluate(longer).overall()
