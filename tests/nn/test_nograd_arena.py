"""The graph-free inference fast path: no_grad builds no graph, the
buffer arena recycles op outputs, and both are numerically invisible.

Regression contract for PR 3: inside ``no_grad()`` blocks no graph nodes
may be created at all — no backward closures, no parent tracking, not
even a ``Tensor._make`` call (every op must take its hoisted fast path).
"""

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor
from repro.nn import functional as F
from repro.nn.arena import BufferArena, active_arena, use_arena
from repro.nn.ops import conv1d, conv2d
from repro.nn.tensor import no_grad


def _op_zoo(x: Tensor, w: Tensor):
    """Exercise every differentiable op family once."""
    y = x @ w
    y = (y + 1.0) * 2.0 - x.sum(axis=1, keepdims=True) / 3.0
    y = (-y).abs().sqrt().exp().log().tanh().sigmoid()
    y = y.relu() + y.leaky_relu(0.2) + y.clip(-0.5, 0.5) + y ** 2
    y = y.mean(axis=0) + y.max(axis=0) + y.min(axis=0) + y.var(axis=0)
    y = y.reshape(1, -1).transpose().squeeze(1).expand_dims(0)
    y = nn.concatenate([y, y], axis=0)
    y = nn.stack([y, y], axis=0)[0]
    y = nn.where(y.data > 0, y, y * 0.5)
    y = y.pad([(0, 0), (1, 1)])[:, 1:-1]
    return y.swapaxes(0, 1).sum()


class TestNoGraphInsideNoGrad:
    def test_no_graph_nodes_created(self, monkeypatch):
        """Inside no_grad, Tensor._make must never run: closures and parent
        tuples are skipped entirely, not just discarded."""
        calls = []
        original = Tensor._make

        def counting(data, parents, backward):
            calls.append(len(parents))
            return original(data, parents, backward)

        monkeypatch.setattr(Tensor, "_make", staticmethod(counting))
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3)), requires_grad=True)

        with no_grad():
            _op_zoo(x, w)
            conv2d(
                Tensor(rng.standard_normal((2, 3, 6, 6)), requires_grad=True),
                Tensor(rng.standard_normal((4, 3, 3, 3)), requires_grad=True),
                Tensor(rng.standard_normal(4), requires_grad=True),
                padding=1,
            )
            conv1d(
                Tensor(rng.standard_normal((2, 1, 12)), requires_grad=True),
                Tensor(rng.standard_normal((1, 1, 3)), requires_grad=True),
                padding=1,
            )
            conv1d(
                Tensor(rng.standard_normal((2, 3, 12)), requires_grad=True),
                Tensor(rng.standard_normal((4, 3, 3)), requires_grad=True),
                dilation=2,
            )
        assert calls == [], f"graph nodes created inside no_grad: {len(calls)}"

        _op_zoo(x, w)  # sanity: with grad on, the same ops do build a graph
        assert len(calls) > 0

    def test_no_graph_nodes_in_model_predict(self, monkeypatch):
        from repro.core import STHSL, STHSLConfig

        calls = []
        original = Tensor._make

        def counting(data, parents, backward):
            calls.append(1)
            return original(data, parents, backward)

        model = STHSL(
            STHSLConfig(rows=4, cols=4, num_categories=2, window=6, dim=4, num_hyperedges=8),
            seed=0,
        )
        window = np.random.default_rng(1).standard_normal((16, 6, 2))
        monkeypatch.setattr(Tensor, "_make", staticmethod(counting))
        model.predict(window)
        assert calls == []

    def test_outputs_carry_no_graph_state(self):
        x = Tensor(np.random.default_rng(2).standard_normal((3, 3)), requires_grad=True)
        with no_grad():
            out = (x @ x).tanh() + x
        assert out._backward is None
        assert out._parents == ()
        assert not out.requires_grad


class TestBufferArena:
    def test_take_and_release_round_trip(self):
        arena = BufferArena()
        a = arena.take((4, 4), np.dtype(np.float64))
        b = arena.take((4, 4), np.dtype(np.float64))
        assert a is not b  # in-use buffers never alias
        assert arena.misses == 2 and arena.hits == 0
        arena.release_all()
        c = arena.take((4, 4), np.dtype(np.float64))
        assert c is a or c is b  # recycled, not reallocated
        assert arena.hits == 1

    def test_use_arena_scopes_and_releases(self):
        arena = BufferArena()
        assert active_arena() is None
        with use_arena(arena):
            assert active_arena() is arena
            arena.take((2,), np.dtype(np.float64))
            assert len(arena._in_use) == 1
        assert active_arena() is None
        assert len(arena._in_use) == 0  # released on exit

    def test_reentrant_same_arena_keeps_outer_ownership(self):
        arena = BufferArena()
        with use_arena(arena):
            arena.take((2,), np.dtype(np.float64))
            with use_arena(arena):
                arena.take((3,), np.dtype(np.float64))
            # Inner exit must NOT release the outer scope's buffers.
            assert len(arena._in_use) == 2
        assert len(arena._in_use) == 0

    def test_memory_is_bounded_by_peak_working_set(self):
        arena = BufferArena()
        for _ in range(10):
            with use_arena(arena):
                arena.take((8, 8), np.dtype(np.float64))
                arena.take((8, 8), np.dtype(np.float64))
        assert arena.num_buffers == 2  # not 20

    def test_nbytes_accounting(self):
        arena = BufferArena()
        arena.take((4,), np.dtype(np.float64))
        assert arena.nbytes == 32

    def test_stats_counts_conv_workspace_hits_across_calls(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.standard_normal((3, 4, 6, 7)))
        w = Tensor(rng.standard_normal((5, 4, 3, 3)))
        arena = BufferArena()
        for _ in range(2):
            with no_grad(), use_arena(arena):
                conv2d(x, w, None, padding=1)
        stats = arena.stats()
        # The second call re-hits every workspace the first call allocated.
        assert stats["hits"] >= stats["misses"] == stats["buffers"] > 0
        assert stats["nbytes"] == sum(stats["bytes_by_dtype"].values()) == arena.nbytes


class TestArenaNumericalIdentity:
    """Arena-backed fast paths run the identical IEEE op sequence."""

    def _chain(self, x: Tensor, w: Tensor) -> Tensor:
        h = (x @ w).tanh().sigmoid().leaky_relu(0.2)
        return ((h * 2.0 + 1.0).relu() - h / 3.0).exp().log()

    def test_elementwise_chain_bitwise_identical(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((6, 5)), requires_grad=True)
        w = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
        reference = self._chain(x, w).data
        arena = BufferArena()
        for _ in range(3):  # repeat: recycled buffers must not leak state
            with no_grad(), use_arena(arena):
                result = self._chain(x, w).data.copy()
            assert np.array_equal(reference, result)
        assert arena.hits > 0  # the fast path actually recycled buffers

    @pytest.mark.parametrize("padding", [0, 1])
    def test_conv2d_bitwise_identical(self, padding):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((3, 2, 6, 6)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(4), requires_grad=True)
        reference = conv2d(x, w, b, padding=padding).data
        arena = BufferArena()
        for _ in range(2):
            with no_grad(), use_arena(arena):
                result = conv2d(x, w, b, padding=padding).data.copy()
            assert np.array_equal(reference, result)

    @pytest.mark.parametrize("channels,dilation", [(1, 1), (3, 2)])
    def test_conv1d_bitwise_identical(self, channels, dilation):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((3, channels, 14)), requires_grad=True)
        w = Tensor(rng.standard_normal((channels, channels, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(channels), requires_grad=True)
        reference = conv1d(x, w, b, padding=2, dilation=dilation).data
        arena = BufferArena()
        for _ in range(2):
            with no_grad(), use_arena(arena):
                result = conv1d(x, w, b, padding=2, dilation=dilation).data.copy()
            assert np.array_equal(reference, result)

    def test_softmax_and_losses_identical(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((4, 7)), requires_grad=True)
        t = rng.standard_normal((4, 7))
        ref_soft = F.softmax(x, axis=-1).data
        ref_mse = F.mse_loss(x, t).data
        arena = BufferArena()
        with no_grad(), use_arena(arena):
            assert np.array_equal(F.softmax(x, axis=-1).data, ref_soft)
            assert np.array_equal(F.mse_loss(x, t).data, ref_mse)

    def test_leaky_relu_slope_zero_with_inf_matches_graph(self):
        # slope=0 must not take the max(x, 0*x) shortcut: 0*inf = NaN.
        x = Tensor(np.array([np.inf, -1.0, 2.0]), requires_grad=True)
        reference = x.leaky_relu(0.0).data
        with no_grad():
            fast = x.leaky_relu(0.0).data
        assert np.array_equal(reference, fast, equal_nan=True)
        assert fast[0] == np.inf

    def test_float32_chain_stays_float32(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((4, 4)).astype(np.float32), requires_grad=True)
        arena = BufferArena()
        with no_grad(), use_arena(arena):
            out = (x @ x).tanh().leaky_relu(0.2) * 2.0
        assert out.dtype == np.float32
