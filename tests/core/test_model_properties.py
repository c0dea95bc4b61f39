"""Property-based and invariance tests on the ST-HSL model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import STHSL, STHSLConfig, STHSLViews
from repro.nn import functional as F
from repro.nn import Tensor


def _cfg(**kwargs):
    base = dict(
        rows=3, cols=3, num_categories=2, window=6, dim=4, num_hyperedges=6,
        num_global_temporal_layers=1, dropout=0.0,
    )
    base.update(kwargs)
    return STHSLConfig(**base)


class TestScaleBehaviour:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=200))
    def test_prediction_finite_for_any_input(self, seed):
        rng = np.random.default_rng(seed)
        model = STHSL(_cfg(), seed=0)
        window = rng.standard_normal((9, 6, 2)) * rng.uniform(0.1, 20)
        assert np.all(np.isfinite(model.predict(window)))

    def test_zero_window_gives_finite_prediction(self):
        model = STHSL(_cfg(), seed=0)
        pred = model.predict(np.zeros((9, 6, 2)))
        assert np.all(np.isfinite(pred))

    def test_extreme_window_no_overflow(self):
        """Sigmoid/exp paths must not overflow on extreme inputs."""
        model = STHSL(_cfg(), seed=0)
        pred = model.predict(np.full((9, 6, 2), 1e3))
        assert np.all(np.isfinite(pred))


class TestStructuralInvariances:
    def test_category_embedding_controls_output(self):
        """Zeroing a category's type embedding decouples that category's
        global-branch prediction from its inputs."""
        cfg = _cfg(use_local=False, use_contrastive=False)
        model = STHSL(cfg, seed=0)
        model.embedding.type_embedding.data[1] = 0.0
        rng = np.random.default_rng(0)
        base = rng.standard_normal((9, 6, 2))
        bumped = base.copy()
        bumped[:, :, 1] += 10.0  # only category 1 inputs change
        delta = np.abs(model.predict(bumped) - model.predict(base))
        assert delta.max() == pytest.approx(0.0, abs=1e-9)

    def test_hypergraph_gives_global_reach(self):
        """Through the hypergraph, a far-away region's input affects the
        prediction of every region (the grid-conv local branch alone
        cannot do this in one window on a large grid)."""
        cfg = _cfg(rows=5, cols=5, use_local=False, use_contrastive=False)
        model = STHSL(cfg, seed=0)
        rng = np.random.default_rng(1)
        base = rng.standard_normal((25, 6, 2))
        bumped = base.copy()
        bumped[0] += 3.0
        delta = np.abs(model.predict(bumped) - model.predict(base))
        assert delta[24].max() > 0  # opposite corner moved

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=100))
    def test_loss_nonnegative_components(self, seed):
        rng = np.random.default_rng(seed)
        model = STHSL(_cfg(), seed=0)
        views = STHSLViews()
        model.forward_batch(rng.standard_normal((9, 6, 2))[None], views)
        loss = model.loss(views, rng.standard_normal((9, 2))[None])
        assert loss.prediction >= 0
        assert loss.infomax >= 0
        # InfoNCE over finite negatives is positive.
        assert loss.contrastive > 0


class TestGradientAnalysisEq11:
    """Empirical check of the paper's §III-F hard-negative analysis:
    the InfoNCE gradient norm w.r.t. a negative grows with its
    similarity to the anchor (Eq 12: ∝ sqrt(1-s²)·exp(s/τ))."""

    def test_harder_negatives_get_larger_gradients(self):
        rng = np.random.default_rng(0)
        anchor = rng.standard_normal(8)
        anchor /= np.linalg.norm(anchor)
        positive = anchor.copy()

        def grad_norm_for(similarity: float) -> float:
            # Build a negative with controlled cosine similarity.
            noise = rng.standard_normal(8)
            noise -= noise @ anchor * anchor
            noise /= np.linalg.norm(noise)
            negative = similarity * anchor + np.sqrt(1 - similarity ** 2) * noise
            anchors = Tensor(np.stack([anchor, negative]), requires_grad=False)
            positives = Tensor(np.stack([positive, negative]), requires_grad=True)
            loss = F.info_nce(anchors, positives, temperature=0.5)
            loss.backward()
            return float(np.linalg.norm(positives.grad[1]))

        easy = grad_norm_for(0.1)
        hard = grad_norm_for(0.9)
        assert hard > easy
