"""Optimizer behaviour: update rules, weight decay, clipping, convergence."""

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor
from repro.nn.module import Parameter


def _quadratic_param(value=5.0):
    return Parameter(np.array([value]))


def _step(param, opt):
    opt.zero_grad()
    loss = (Tensor(param.data * 0) + param) ** 2
    loss.sum().backward()
    opt.step()


class TestAdam:
    def test_first_step_size_is_lr(self):
        # With bias correction the first Adam step is ≈ lr in magnitude.
        p = _quadratic_param(1.0)
        opt = nn.Adam([p], lr=0.01)
        _step(p, opt)
        assert 1.0 - p.data[0] == pytest.approx(0.01, rel=1e-3)

    def test_converges_on_quadratic(self):
        p = _quadratic_param(5.0)
        opt = nn.Adam([p], lr=0.2)
        for _ in range(300):
            _step(p, opt)
        assert abs(p.data[0]) < 1e-2

    def test_weight_decay_changes_fixed_point(self):
        decayed = _quadratic_param(5.0)
        plain = _quadratic_param(5.0)
        opt_d = nn.Adam([decayed], lr=0.1, weight_decay=5.0)
        opt_p = nn.Adam([plain], lr=0.1)
        for _ in range(50):
            _step(decayed, opt_d)
            _step(plain, opt_p)
        assert abs(decayed.data[0]) <= abs(plain.data[0]) + 1e-9

    def test_skips_params_without_grad(self):
        p = Parameter(np.array([1.0]))
        opt = nn.Adam([p], lr=0.1)
        opt.step()  # no grad assigned; should not raise or move
        assert p.data[0] == 1.0

    def test_empty_param_list_is_noop(self):
        # Parameterless models (statistical baselines) share the trainer;
        # construction, stepping and zeroing must all be tolerated.
        opt = nn.Adam([], lr=0.1)
        opt.zero_grad()
        opt.step()
        assert opt.params == []

    def test_state_tracks_multiple_params(self):
        a, b = Parameter(np.ones(3)), Parameter(np.ones((2, 2)))
        opt = nn.Adam([a, b], lr=0.1)
        a.grad = np.ones(3)
        b.grad = np.ones((2, 2))
        opt.step()
        assert a.data.shape == (3,) and b.data.shape == (2, 2)
        assert np.all(a.data < 1.0) and np.all(b.data < 1.0)


class TestClipGradNorm:
    def test_no_clip_below_threshold(self):
        p = Parameter(np.zeros(4))
        p.grad = np.full(4, 0.1)
        norm = nn.clip_grad_norm([p], max_norm=10.0)
        assert norm == pytest.approx(0.2)
        assert np.allclose(p.grad, 0.1)

    def test_clips_to_max_norm(self):
        p = Parameter(np.zeros(4))
        p.grad = np.full(4, 10.0)
        nn.clip_grad_norm([p], max_norm=1.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)

    def test_global_norm_across_params(self):
        a, b = Parameter(np.zeros(1)), Parameter(np.zeros(1))
        a.grad, b.grad = np.array([3.0]), np.array([4.0])
        norm = nn.clip_grad_norm([a, b], max_norm=2.5)
        assert norm == pytest.approx(5.0)
        assert np.linalg.norm([a.grad[0], b.grad[0]]) == pytest.approx(2.5)
