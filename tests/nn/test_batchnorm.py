"""BatchNorm2d tests."""

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor


def _x(n=4, c=3, h=5, w=5, seed=0, loc=2.0, scale=3.0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(loc, scale, size=(n, c, h, w)), requires_grad=True)


class TestBatchNorm2d:
    def test_training_normalises_channels(self):
        bn = nn.BatchNorm2d(3)
        bn.train()
        out = bn(_x())
        per_channel_mean = out.data.mean(axis=(0, 2, 3))
        per_channel_std = out.data.std(axis=(0, 2, 3))
        assert np.allclose(per_channel_mean, 0.0, atol=1e-7)
        assert np.allclose(per_channel_std, 1.0, atol=1e-2)

    def test_running_stats_converge(self):
        bn = nn.BatchNorm2d(2)
        bn.train()
        for seed in range(50):
            bn(_x(c=2, seed=seed, loc=5.0, scale=2.0))
        assert np.allclose(bn.running_mean, 5.0, atol=0.3)
        assert np.allclose(bn.running_var, 4.0, atol=0.8)

    def test_eval_uses_running_stats(self):
        bn = nn.BatchNorm2d(2)
        bn.train()
        for seed in range(30):
            bn(_x(c=2, seed=seed))
        bn.eval()
        x = _x(c=2, seed=99)
        out1 = bn(x)
        out2 = bn(x)
        assert np.allclose(out1.data, out2.data)  # stats frozen in eval

    def test_gamma_beta_trainable(self):
        bn = nn.BatchNorm2d(3)
        bn.train()
        out = bn(_x())
        out.sum().backward()
        assert bn.gamma.grad is not None
        assert bn.beta.grad is not None

    def test_affine_parameters_shift_output(self):
        bn = nn.BatchNorm2d(1)
        bn.eval()
        bn.gamma.data[:] = 2.0
        bn.beta.data[:] = 1.0
        x = Tensor(np.zeros((1, 1, 2, 2)))
        out = bn(x)
        # normed zero input -> beta only
        assert np.allclose(out.data, 1.0)

    def test_in_st_resnet(self):
        from repro.baselines import STResNet

        model = STResNet(4, 4, 2, window=8, hidden=8, seed=0)
        window = np.random.default_rng(0).standard_normal((16, 8, 2))
        model.train()
        loss = model.training_loss(window, np.zeros((16, 2)))
        loss.backward()
        assert np.isfinite(float(loss.data))

    def test_running_stats_survive_state_dict_round_trip(self):
        bn = nn.BatchNorm2d(3)
        bn.train()
        for seed in range(5):
            bn(_x(seed=seed))
        fresh = nn.BatchNorm2d(3)
        fresh.load_state_dict(bn.state_dict())
        assert np.array_equal(fresh.running_mean, bn.running_mean)
        assert np.array_equal(fresh.running_var, bn.running_var)
        bn.eval()
        fresh.eval()
        x = _x(seed=99)
        assert np.array_equal(fresh(x).data, bn(x).data)

    def test_parameter_only_state_keeps_initial_stats(self):
        bn = nn.BatchNorm2d(3)
        bn.train()
        bn(_x())
        params = {name: p.data.copy() for name, p in bn.named_parameters()}
        fresh = nn.BatchNorm2d(3)
        fresh.load_state_dict(params)
        assert np.array_equal(fresh.gamma.data, bn.gamma.data)
        assert np.array_equal(fresh.running_mean, np.zeros(3))
        assert np.array_equal(fresh.running_var, np.ones(3))
