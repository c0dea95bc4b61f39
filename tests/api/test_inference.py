"""The Forecaster's high-throughput inference entry points.

``predict_batch`` and the streaming ``iter_predict`` must agree exactly
with per-window ``predict`` (they run the same graph-free fast path,
micro-batched), preserve input order, and reuse one buffer arena across
calls instead of allocating per event.
"""

import numpy as np
import pytest

from repro.api import REGISTRY, Forecaster
from repro.api.runspec import ExperimentBudget
from repro.data import load_city

WINDOW = 6


@pytest.fixture(scope="module")
def dataset():
    return load_city("nyc", rows=4, cols=4, num_days=60, seed=0)


@pytest.fixture(scope="module")
def fitted(dataset):
    budget = ExperimentBudget(window=WINDOW, epochs=1, train_limit=4, seed=0)
    return Forecaster("ST-HSL", budget=budget, hidden=4).fit(dataset)


def _windows(dataset, count, seed=0):
    rng = np.random.default_rng(seed)
    days = rng.integers(WINDOW, dataset.num_days - 1, size=count)
    return np.stack([dataset.tensor[:, day - WINDOW : day, :] for day in days])


class TestPredictBatch:
    def test_matches_per_window_predict(self, dataset, fitted):
        windows = _windows(dataset, 5)
        stacked = fitted.predict_batch(windows)
        singles = np.stack([fitted.predict(w) for w in windows])
        assert stacked.shape == (5, 16, dataset.num_categories)
        np.testing.assert_array_equal(stacked, singles)

    def test_chunking_is_invisible(self, dataset, fitted):
        windows = _windows(dataset, 7, seed=1)
        whole = fitted.predict_batch(windows)
        chunked = fitted.predict_batch(windows, batch_size=3)  # 3 + 3 + 1
        np.testing.assert_array_equal(whole, chunked)

    def test_rejects_non_batch_input(self, dataset, fitted):
        with pytest.raises(ValueError, match="batch"):
            fitted.predict_batch(_windows(dataset, 2)[0])

    def test_rejects_bad_batch_size(self, dataset, fitted):
        with pytest.raises(ValueError, match="batch_size"):
            fitted.predict_batch(_windows(dataset, 2), batch_size=0)

    def test_requires_fit(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            Forecaster("ST-HSL").predict_batch(np.zeros((1, 16, WINDOW, 4)))

    @pytest.mark.parametrize("name", REGISTRY.names())
    def test_empty_stack_predicts_empty(self, dataset, name):
        budget = ExperimentBudget(window=WINDOW, epochs=1, train_limit=4, seed=0)
        fc = Forecaster(name, budget=budget, hidden=4).fit(dataset)
        regions, categories = dataset.num_regions, dataset.num_categories
        out = fc.predict_batch(np.empty((0, regions, WINDOW, categories)))
        assert out.shape == (0, regions, categories)

    def test_statistical_model_goes_through_same_entry_point(self, dataset):
        fc = Forecaster("HA", budget=ExperimentBudget(window=WINDOW)).fit(dataset)
        windows = _windows(dataset, 4, seed=2)
        stacked = fc.predict_batch(windows)
        singles = np.stack([fc.predict(w) for w in windows])
        np.testing.assert_array_equal(stacked, singles)


class TestIterPredict:
    def test_stream_matches_predict_in_order(self, dataset, fitted):
        windows = _windows(dataset, 7, seed=3)
        streamed = list(fitted.iter_predict(iter(windows), batch_size=3))
        assert len(streamed) == 7  # tail of 1 flushes at stream end
        singles = [fitted.predict(w) for w in windows]
        for out, ref in zip(streamed, singles):
            np.testing.assert_array_equal(out, ref)

    def test_batch_size_one_streams_event_by_event(self, dataset, fitted):
        windows = _windows(dataset, 3, seed=4)
        streamed = list(fitted.iter_predict(windows, batch_size=1))
        assert len(streamed) == 3

    def test_is_lazy(self, dataset, fitted):
        consumed = []

        def stream():
            for window in _windows(dataset, 4, seed=5):
                consumed.append(1)
                yield window

        iterator = fitted.iter_predict(stream(), batch_size=2)
        assert consumed == []  # nothing pulled before iteration starts
        next(iterator)
        assert len(consumed) == 2  # exactly one micro-batch consumed

    def test_rejects_bad_batch_size_and_shape(self, dataset, fitted):
        with pytest.raises(ValueError, match="batch_size"):
            fitted.iter_predict([], batch_size=0)  # eager, at the call site
        with pytest.raises(ValueError, match="stream"):
            list(fitted.iter_predict([np.zeros((16, WINDOW))]))

    def test_outputs_are_counts(self, dataset, fitted):
        for out in fitted.iter_predict(_windows(dataset, 2, seed=6)):
            assert out.shape == (16, dataset.num_categories)
            assert (out >= 0).all()


class TestArenaReuse:
    def test_model_arena_is_shared_across_calls(self, dataset, fitted):
        windows = _windows(dataset, 4, seed=7)
        fitted.predict_batch(windows, batch_size=2)
        # The calling thread's arena: same object across calls from here.
        arena = fitted.model._inference_arena()
        assert arena is not None
        buffers_after_first = arena.num_buffers
        hits_before = arena.hits
        fitted.predict_batch(windows, batch_size=2)
        assert arena.hits > hits_before  # recycled, not reallocated
        assert arena.num_buffers == buffers_after_first  # no growth
