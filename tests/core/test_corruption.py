"""Infomax corruption-strategy tests (shuffle vs noise)."""

import sys

import numpy as np
import pytest

from repro.core import STHSL, STHSLConfig, HypergraphEncoder
from repro.nn import Tensor


def _cfg(**kwargs):
    base = dict(
        rows=3, cols=3, num_categories=2, window=6, dim=4, num_hyperedges=6,
        num_global_temporal_layers=1, dropout=0.0,
    )
    base.update(kwargs)
    return STHSLConfig(**base)


class TestCorruptionConfig:
    def test_invalid_strategy_rejected(self):
        with pytest.raises(ValueError):
            _cfg(corruption="swap")

    def test_both_strategies_train(self):
        rng = np.random.default_rng(0)
        window = rng.standard_normal((9, 6, 2))
        target = rng.standard_normal((9, 2))
        for strategy in ("shuffle", "noise"):
            model = STHSL(_cfg(corruption=strategy), seed=0)
            loss = model.training_loss(window, target)
            loss.backward()
            assert np.isfinite(float(loss.data))


class TestEncoderCorruption:
    def _encoder(self):
        return HypergraphEncoder(
            num_nodes=10, num_hyperedges=4, leaky_slope=0.2, rng=np.random.default_rng(1)
        )

    def test_noise_strategy_differs_from_original(self):
        enc = self._encoder()
        nodes = Tensor(np.random.default_rng(2).standard_normal((2, 10, 3)))
        corrupt = enc.propagate_corrupt(nodes, np.random.default_rng(3), strategy="noise")
        assert not np.allclose(corrupt.data, enc(nodes).data)

    def test_noise_scale_zero_equals_original(self):
        enc = self._encoder()
        nodes = Tensor(np.random.default_rng(2).standard_normal((2, 10, 3)))
        corrupt = enc.propagate_corrupt(
            nodes, np.random.default_rng(3), strategy="noise", noise_scale=0.0
        )
        assert np.allclose(corrupt.data, enc(nodes).data)

    def test_shuffle_preserves_multiset_of_inputs(self):
        """Shuffling permutes node identities but keeps the value set."""
        enc = self._encoder()
        nodes = np.random.default_rng(4).standard_normal((1, 10, 3))
        rng = np.random.default_rng(5)
        permutation = rng.permutation(10)
        shuffled = nodes[:, permutation, :]
        assert np.allclose(np.sort(shuffled.reshape(-1)), np.sort(nodes.reshape(-1)))

    def test_unknown_strategy_raises(self):
        enc = self._encoder()
        nodes = Tensor(np.zeros((1, 10, 3)))
        with pytest.raises(ValueError):
            enc.propagate_corrupt(nodes, np.random.default_rng(0), strategy="flip")


def _add_at_calls(fn) -> int:
    """How many times ``fn()`` calls ``np.add.at``, seen by a profile hook."""
    calls = []

    def hook(_frame, event, arg):
        if event == "c_call" and getattr(arg, "__self__", None) is np.add and arg.__name__ == "at":
            calls.append(arg)

    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return len(calls)


class TestShuffleBackward:
    """The shuffle's gather index is a permutation, so its backward is the
    inverse gather: no ``np.add.at`` scatter, and the gradient is the one
    the fancy-index gather's scatter gives, bitwise."""

    def test_gradient_matches_the_fancy_index_gather(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((2, 3, 10, 3))  # (B, T, RC, d)
        g = rng.standard_normal(data.shape)
        enc = HypergraphEncoder(10, 4, 0.2, np.random.default_rng(1))
        nodes = Tensor(data, requires_grad=True)
        corrupt = enc.propagate_corrupt(nodes, np.random.default_rng(3))
        assert _add_at_calls(lambda: corrupt.backward(g)) == 0
        # The same permutations, gathered by fancy index.
        perm_rng = np.random.default_rng(3)
        perms = np.stack([perm_rng.permutation(10) for _ in range(2)])
        fancy = Tensor(data, requires_grad=True)
        index = (np.arange(2).reshape(2, 1, 1), np.arange(3).reshape(1, 3, 1), perms[:, None, :])
        enc(fancy[index]).backward(g)
        assert np.array_equal(nodes.grad, fancy.grad)

    def test_training_step_scatters_nothing(self):
        cfg = _cfg(dropout=0.1)
        model = STHSL(cfg, seed=0)
        rng = np.random.default_rng(0)
        windows = rng.standard_normal((2, cfg.num_regions, cfg.window, cfg.num_categories))
        targets = rng.standard_normal((2, cfg.num_regions, cfg.num_categories))
        model.train()
        loss = model.training_loss_batch(windows, targets)
        assert _add_at_calls(loss.backward) == 0
        assert all(p.grad is not None for p in model.parameters())
