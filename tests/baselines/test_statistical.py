"""Tests for the statistical baselines: ARIMA, SVR, HistoricalAverage."""

import numpy as np
import pytest

from repro import nn
from repro.api import REGISTRY
from repro.baselines import ARIMA, SVR, HistoricalAverage
from repro.baselines.arima import fit_ar_coefficients, hannan_rissanen


class TestARFit:
    def test_recovers_ar1_coefficient(self):
        rng = np.random.default_rng(0)
        phi = 0.7
        series = np.zeros(500)
        for t in range(1, 500):
            series[t] = phi * series[t - 1] + rng.standard_normal() * 0.1
        coef = fit_ar_coefficients(series, order=1)
        assert coef[0] == pytest.approx(phi, abs=0.05)

    def test_short_series_returns_zeros(self):
        assert np.allclose(fit_ar_coefficients(np.ones(2), order=3), 0.0)

    def test_hannan_rissanen_shapes(self):
        rng = np.random.default_rng(1)
        series = rng.standard_normal(100)
        ar, ma, const = hannan_rissanen(series, p=2, q=1)
        assert ar.shape == (2,) and ma.shape == (1,)
        assert np.isfinite(const)


class TestARIMA:
    def test_constant_series_predicts_constant(self):
        model = ARIMA(p=2, d=0, q=0)
        assert model.predict_series(np.full(30, 5.0)) == pytest.approx(5.0, abs=1e-6)

    def test_linear_trend_with_differencing(self):
        """d=1 turns a linear ramp into a constant, so the forecast
        continues the ramp."""
        model = ARIMA(p=2, d=1, q=0)
        series = np.arange(30, dtype=float)
        assert model.predict_series(series) == pytest.approx(30.0, abs=0.5)

    def test_ar_process_beats_mean_forecast(self):
        rng = np.random.default_rng(2)
        phi = 0.9
        series = np.zeros(60)
        for t in range(1, 60):
            series[t] = phi * series[t - 1] + rng.standard_normal() * 0.05
        truth = phi * series[-1]
        arima_pred = ARIMA(p=2, d=0, q=0).predict_series(series)
        mean_pred = series.mean()
        assert abs(arima_pred - truth) < abs(mean_pred - truth)

    def test_tensor_interface_shape(self):
        model = ARIMA()
        window = np.random.default_rng(3).standard_normal((6, 20, 2))
        assert model.predict(window).shape == (6, 2)

    def test_invalid_orders_raise(self):
        with pytest.raises(ValueError):
            ARIMA(p=0)

    def test_training_loss_is_zero(self):
        model = ARIMA()
        window = np.zeros((2, 10, 1))
        assert float(model.training_loss(window, np.zeros((2, 1))).data) == 0.0
        assert REGISTRY.spec("ARIMA").requires_training is False


class TestSVR:
    def test_prediction_shape(self):
        model = SVR(window=10, num_categories=3, seed=0)
        window = np.random.default_rng(0).standard_normal((5, 10, 3))
        assert model.predict(window).shape == (5, 3)

    def test_learns_linear_relationship(self):
        """SVR should fit y = last-day value (a pure lag-1 relation)."""
        rng = np.random.default_rng(1)
        model = SVR(window=5, num_categories=1, seed=0, epsilon=0.01)
        opt = nn.Adam(model.parameters(), lr=0.05)
        for _ in range(200):
            window = rng.standard_normal((8, 5, 1))
            target = window[:, -1, :]
            opt.zero_grad()
            loss = model.training_loss(window, target)
            loss.backward()
            opt.step()
        window = rng.standard_normal((8, 5, 1))
        pred = model.predict(window)
        assert np.abs(pred - window[:, -1, :]).mean() < 0.15

    def test_epsilon_insensitivity(self):
        """Errors below epsilon contribute zero loss (ignoring the
        regulariser)."""
        model = SVR(window=2, num_categories=1, seed=0, epsilon=10.0, c_reg=0.0)
        window = np.zeros((3, 2, 1))
        target = np.full((3, 1), 0.5)  # |pred - target| = 0.5 << epsilon
        assert float(model.training_loss(window, target).data) == pytest.approx(0.0)


class TestHistoricalAverage:
    def test_mean_prediction(self):
        model = HistoricalAverage()
        window = np.arange(12, dtype=float).reshape(1, 12, 1)
        assert model.predict(window)[0, 0] == pytest.approx(5.5)

    def test_lookback(self):
        model = HistoricalAverage(lookback=2)
        window = np.array([0.0, 0.0, 4.0, 6.0]).reshape(1, 4, 1)
        assert model.predict(window)[0, 0] == pytest.approx(5.0)

    def test_vector_matches_series_interface(self):
        model = HistoricalAverage()
        window = np.random.default_rng(0).standard_normal((4, 7, 2))
        fast = model.predict(window)
        slow = np.array(
            [[model.predict_series(window[r, :, c]) for c in range(2)] for r in range(4)]
        )
        assert np.allclose(fast, slow)

    def test_invalid_lookback_raises(self):
        with pytest.raises(ValueError):
            HistoricalAverage(lookback=0)
