"""Tests for functional composites: activations, losses, InfoNCE."""

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn import functional as F
from repro.nn.gradcheck import gradcheck

RNG = np.random.default_rng(2)


def _t(*shape, scale=1.0):
    return Tensor(RNG.standard_normal(shape) * scale, requires_grad=True)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        out = F.softmax(_t(4, 5))
        assert np.allclose(out.data.sum(axis=-1), 1.0)

    def test_shift_invariance(self):
        x = _t(3, 4)
        shifted = Tensor(x.data + 1000.0)
        assert np.allclose(F.softmax(x).data, F.softmax(shifted).data)

    def test_log_softmax_consistency(self):
        x = _t(3, 4)
        assert np.allclose(F.log_softmax(x).data, np.log(F.softmax(x).data))

    def test_gradcheck(self):
        gradcheck(lambda x: F.softmax(x, axis=-1), [_t(3, 4)])
        gradcheck(lambda x: F.log_softmax(x, axis=-1), [_t(3, 4)])


class TestNormalize:
    def test_unit_norm(self):
        out = F.normalize(_t(5, 8))
        assert np.allclose(np.linalg.norm(out.data, axis=-1), 1.0)

    def test_cosine_similarity_bounds(self):
        sim = F.cosine_similarity(_t(10, 4), _t(10, 4))
        assert np.all(sim.data <= 1.0 + 1e-9) and np.all(sim.data >= -1.0 - 1e-9)

    def test_cosine_of_self_is_one(self):
        x = _t(6, 3)
        assert np.allclose(F.cosine_similarity(x, x).data, 1.0)

    def test_gradcheck(self):
        gradcheck(lambda a, b: F.cosine_similarity(a, b), [_t(4, 3), _t(4, 3)])


class TestLosses:
    def test_mse_zero_at_target(self):
        x = _t(3, 3)
        assert F.mse_loss(x, x.data).item() == pytest.approx(0.0)

    def test_mse_reductions(self):
        pred, target = _t(2, 3), RNG.standard_normal((2, 3))
        total = F.mse_loss(pred, target, reduction="sum").item()
        mean = F.mse_loss(pred, target, reduction="mean").item()
        assert total == pytest.approx(mean * 6)

    def test_l1_matches_numpy(self):
        pred, target = _t(4), RNG.standard_normal(4)
        assert F.l1_loss(pred, target).item() == pytest.approx(np.abs(pred.data - target).mean())

    def test_huber_quadratic_region(self):
        pred = Tensor(np.array([0.1]), requires_grad=True)
        target = np.array([0.0])
        assert F.huber_loss(pred, target, delta=1.0).item() == pytest.approx(0.5 * 0.01)

    def test_huber_linear_region(self):
        pred = Tensor(np.array([3.0]), requires_grad=True)
        # 0.5*delta^2 + delta*(|e|-delta) = 0.5 + 2.0
        assert F.huber_loss(pred, np.array([0.0]), delta=1.0).item() == pytest.approx(2.5)

    def test_bce_logits_matches_reference(self):
        logits = _t(6, scale=2.0)
        target = (RNG.random(6) > 0.5).astype(float)
        probs = 1.0 / (1.0 + np.exp(-logits.data))
        expected = -(target * np.log(probs) + (1 - target) * np.log(1 - probs)).mean()
        assert F.binary_cross_entropy_with_logits(logits, target).item() == pytest.approx(expected)

    def test_bce_logits_stable_at_extremes(self):
        logits = Tensor(np.array([500.0, -500.0]), requires_grad=True)
        loss = F.binary_cross_entropy_with_logits(logits, np.array([1.0, 0.0]))
        assert np.isfinite(loss.item())
        loss.backward()
        assert np.all(np.isfinite(logits.grad))

    def test_mse_gradcheck(self):
        target = RNG.standard_normal((3, 2))
        gradcheck(lambda p: F.mse_loss(p, target, reduction="sum"), [_t(3, 2)])

    def test_bce_gradcheck(self):
        target = (RNG.random((3, 2)) > 0.5).astype(float)
        gradcheck(lambda x: F.binary_cross_entropy_with_logits(x, target), [_t(3, 2)])


class TestInfoNCE:
    def test_perfect_alignment_beats_random(self):
        anchor = _t(8, 4)
        aligned = F.info_nce(anchor, Tensor(anchor.data.copy(), requires_grad=True))
        shuffled = Tensor(anchor.data[RNG.permutation(8)], requires_grad=True)
        misaligned = F.info_nce(anchor, shuffled)
        assert aligned.item() < misaligned.item()

    def test_lower_bound_is_positive(self):
        loss = F.info_nce(_t(5, 3), _t(5, 3))
        assert loss.item() > 0.0

    def test_temperature_sharpens(self):
        a = _t(6, 4)
        p = Tensor(a.data + 0.01 * RNG.standard_normal((6, 4)), requires_grad=True)
        sharp = F.info_nce(a, p, temperature=0.1).item()
        smooth = F.info_nce(a, p, temperature=10.0).item()
        # Sharper temperature concentrates probability on the near-identical positive.
        assert sharp < smooth

    def test_gradcheck(self):
        gradcheck(lambda a, p: F.info_nce(a, p, temperature=0.7), [_t(4, 3), _t(4, 3)], rtol=1e-3)


class TestDropout:
    def test_eval_identity(self):
        x = _t(100)
        out = F.dropout(x, 0.5, training=False, rng=RNG)
        assert out is x

    def test_training_zeroes_and_scales(self):
        rng = np.random.default_rng(3)
        x = Tensor(np.ones(10000), requires_grad=True)
        out = F.dropout(x, 0.5, training=True, rng=rng)
        kept = out.data[out.data > 0]
        assert np.allclose(kept, 2.0)
        assert abs((out.data == 0).mean() - 0.5) < 0.05

    def test_expectation_preserved(self):
        rng = np.random.default_rng(4)
        x = Tensor(np.ones(50000))
        out = F.dropout(x, 0.3, training=True, rng=rng)
        assert out.data.mean() == pytest.approx(1.0, abs=0.02)

    def test_zero_rate_identity(self):
        x = _t(5)
        assert F.dropout(x, 0.0, training=True, rng=RNG) is x

    def test_mask_follows_index_order_and_output_keeps_the_layout(self):
        # A swapaxes view of channel-major memory drops the same elements
        # as its C-contiguous copy, and the product stays channel-major.
        values = np.random.default_rng(5).standard_normal((3, 4, 5))
        view = Tensor(np.ascontiguousarray(values.swapaxes(0, 1)).swapaxes(0, 1))
        out = F.dropout(view, 0.4, training=True, rng=np.random.default_rng(6))
        expected = F.dropout(Tensor(values), 0.4, training=True, rng=np.random.default_rng(6))
        assert np.array_equal(out.data, expected.data)
        assert out.data.swapaxes(0, 1).flags.c_contiguous
