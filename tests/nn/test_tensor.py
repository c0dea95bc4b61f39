"""Unit tests for the autograd Tensor: arithmetic, reductions, shapes."""

import tracemalloc

import numpy as np
import pytest

from repro.nn import Tensor, concatenate, no_grad, stack, take_permutation, where
from repro.nn.gradcheck import gradcheck
from repro.nn.tensor import unbroadcast

RNG = np.random.default_rng(0)


def _t(*shape, scale=1.0):
    return Tensor(RNG.standard_normal(shape) * scale, requires_grad=True)


class TestForwardValues:
    def test_add_matches_numpy(self):
        a, b = _t(3, 4), _t(3, 4)
        assert np.allclose((a + b).data, a.data + b.data)

    def test_scalar_broadcast(self):
        a = _t(3, 4)
        assert np.allclose((a + 2.0).data, a.data + 2.0)
        assert np.allclose((2.0 * a).data, 2.0 * a.data)
        assert np.allclose((1.0 - a).data, 1.0 - a.data)
        assert np.allclose((1.0 / (a + 10.0)).data, 1.0 / (a.data + 10.0))

    def test_matmul_matches_numpy(self):
        a, b = _t(3, 4), _t(4, 5)
        assert np.allclose((a @ b).data, a.data @ b.data)

    def test_batched_matmul(self):
        a, b = _t(2, 3, 4), _t(2, 4, 5)
        assert np.allclose((a @ b).data, a.data @ b.data)

    def test_reductions(self):
        a = _t(3, 4)
        assert np.allclose(a.sum().data, a.data.sum())
        assert np.allclose(a.mean(axis=1).data, a.data.mean(axis=1))
        assert np.allclose(a.max(axis=0).data, a.data.max(axis=0))
        assert np.allclose(a.min().data, a.data.min())
        assert np.allclose(a.var(axis=1).data, a.data.var(axis=1))

    def test_reshape_transpose(self):
        a = _t(2, 3, 4)
        assert a.reshape(6, 4).shape == (6, 4)
        assert a.transpose(2, 0, 1).shape == (4, 2, 3)
        assert a.swapaxes(0, 2).shape == (4, 3, 2)

    def test_getitem(self):
        a = _t(5, 4)
        assert np.allclose(a[2].data, a.data[2])
        assert np.allclose(a[1:3, ::2].data, a.data[1:3, ::2])

    def test_item_and_len(self):
        assert Tensor(3.5).item() == 3.5
        assert len(_t(7, 2)) == 7

    def test_comparison_returns_bool_array(self):
        a = _t(3)
        assert (a > 0).dtype == bool

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(_t(2))
        assert "requires_grad" not in repr(Tensor([1.0]))

    def test_int_input_promoted_to_float(self):
        assert Tensor([1, 2, 3]).dtype.kind == "f"


class TestBackwardValues:
    def test_add_grad_ones(self):
        a, b = _t(3), _t(3)
        (a + b).sum().backward()
        assert np.allclose(a.grad, 1.0)
        assert np.allclose(b.grad, 1.0)

    def test_broadcast_add_reduces_grad(self):
        a, b = _t(3, 4), _t(4)
        (a + b).sum().backward()
        assert b.grad.shape == (4,)
        assert np.allclose(b.grad, 3.0)

    def test_mul_grad(self):
        a, b = _t(3), _t(3)
        (a * b).sum().backward()
        assert np.allclose(a.grad, b.data)
        assert np.allclose(b.grad, a.data)

    def test_chain_rule_through_reuse(self):
        # y = x*x + x, dy/dx = 2x + 1 with x used twice in the graph.
        x = _t(4)
        y = x * x + x
        y.sum().backward()
        assert np.allclose(x.grad, 2 * x.data + 1)

    def test_backward_requires_grad_flag(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_no_grad_blocks_graph(self):
        a = _t(3)
        with no_grad():
            out = a * 2.0
        assert not out.requires_grad

    def test_detach_severs_graph(self):
        a = _t(3)
        out = (a.detach() * 2.0).sum()
        assert not out.requires_grad

    def test_grad_accumulates_across_backwards(self):
        a = _t(3)
        (a * 2.0).sum().backward()
        first = a.grad.copy()
        (a * 2.0).sum().backward()
        assert np.allclose(a.grad, 2 * first)

    def test_zero_grad(self):
        a = _t(3)
        (a * 2.0).sum().backward()
        a.zero_grad()
        assert a.grad is None


class TestGradcheckPrimitives:
    @pytest.mark.parametrize(
        "fn",
        [
            lambda a, b: a + b,
            lambda a, b: a - b,
            lambda a, b: a * b,
            lambda a, b: a / (b + 5.0),
            lambda a, b: (a * b).sum(axis=0),
        ],
    )
    def test_binary_ops(self, fn):
        gradcheck(fn, [_t(3, 4), _t(3, 4)])

    @pytest.mark.parametrize(
        "fn",
        [
            lambda a: (-a).sum(),
            lambda a: (a ** 3).sum(),
            lambda a: (a + 5.0).log().sum(),
            lambda a: a.exp().sum(),
            lambda a: a.tanh().sum(),
            lambda a: a.sigmoid().sum(),
            lambda a: (a + 5.0).sqrt().sum(),
            lambda a: a.mean(axis=1).sum(),
            lambda a: a.var(axis=0).sum(),
            lambda a: a.reshape(12).sum(),
            lambda a: a.transpose().sum(),
            lambda a: a.expand_dims(1).squeeze(1).sum(),
        ],
    )
    def test_unary_ops(self, fn):
        gradcheck(fn, [_t(3, 4)])

    def test_leaky_relu_grad(self):
        a = Tensor(np.array([-2.0, -0.5, 0.5, 2.0]), requires_grad=True)
        a.leaky_relu(0.2).sum().backward()
        assert np.allclose(a.grad, [0.2, 0.2, 1.0, 1.0])

    def test_abs_grad_sign(self):
        a = Tensor(np.array([-3.0, 4.0]), requires_grad=True)
        a.abs().sum().backward()
        assert np.allclose(a.grad, [-1.0, 1.0])

    def test_clip_grad_mask(self):
        a = Tensor(np.array([-2.0, 0.5, 2.0]), requires_grad=True)
        a.clip(-1.0, 1.0).sum().backward()
        assert np.allclose(a.grad, [0.0, 1.0, 0.0])

    def test_matmul_gradcheck(self):
        gradcheck(lambda a, b: a @ b, [_t(3, 4), _t(4, 2)])

    def test_batched_matmul_gradcheck(self):
        gradcheck(lambda a, b: a @ b, [_t(2, 3, 4), _t(2, 4, 2)])

    def test_matvec_gradcheck(self):
        gradcheck(lambda a, b: a @ b, [_t(3, 4), _t(4)])

    def test_vecmat_gradcheck(self):
        gradcheck(lambda a, b: a @ b, [_t(4), _t(4, 3)])

    def test_getitem_gradcheck(self):
        gradcheck(lambda a: a[1:3].sum(axis=0), [_t(5, 3)])

    def test_fancy_index_accumulates_duplicates(self):
        a = _t(4, 2)
        idx = np.array([0, 0, 2])
        a[idx].sum().backward()
        assert np.allclose(a.grad[0], 2.0)
        assert np.allclose(a.grad[1], 0.0)
        assert np.allclose(a.grad[2], 1.0)

    def test_max_ties_split_gradient(self):
        a = Tensor(np.array([[1.0, 1.0, 0.0]]), requires_grad=True)
        a.max(axis=1).sum().backward()
        assert np.allclose(a.grad, [[0.5, 0.5, 0.0]])

    def test_pad_gradcheck(self):
        gradcheck(lambda a: a.pad([(1, 1), (0, 2)]), [_t(3, 4)])


class TestCombinators:
    def test_concatenate_forward_backward(self):
        a, b = _t(2, 3), _t(4, 3)
        out = concatenate([a, b], axis=0)
        assert out.shape == (6, 3)
        out.sum().backward()
        assert np.allclose(a.grad, 1.0) and np.allclose(b.grad, 1.0)

    def test_concatenate_gradcheck(self):
        gradcheck(lambda a, b: concatenate([a, b], axis=1), [_t(2, 3), _t(2, 2)])

    def test_stack_forward_backward(self):
        a, b = _t(2, 3), _t(2, 3)
        out = stack([a, b], axis=0)
        assert out.shape == (2, 2, 3)
        gradcheck(lambda x, y: stack([x, y], axis=1), [_t(2, 3), _t(2, 3)])

    def test_where_routes_gradient(self):
        cond = np.array([True, False, True])
        a, b = _t(3), _t(3)
        where(cond, a, b).sum().backward()
        assert np.allclose(a.grad, [1.0, 0.0, 1.0])
        assert np.allclose(b.grad, [0.0, 1.0, 0.0])


class TestUnbroadcast:
    def test_identity(self):
        g = RNG.standard_normal((3, 4))
        assert unbroadcast(g, (3, 4)) is g

    def test_leading_axis_sum(self):
        g = np.ones((5, 3, 4))
        assert unbroadcast(g, (3, 4)).shape == (3, 4)
        assert np.allclose(unbroadcast(g, (3, 4)), 5.0)

    def test_keepdim_axis_sum(self):
        g = np.ones((3, 4))
        out = unbroadcast(g, (3, 1))
        assert out.shape == (3, 1)
        assert np.allclose(out, 4.0)

    def test_scalar_target(self):
        g = np.ones((2, 2))
        assert unbroadcast(g, ()).shape == ()


class TestMaxGradientTies:
    """Regression: even tie-splitting for every axis/keepdims combination.

    The global reduction (``axis=None, keepdims=False``) on multi-dim
    inputs skips the expand_dims path, so it is locked here explicitly
    alongside the per-axis cases.
    """

    def test_global_reduction_multidim_splits_ties(self):
        a = Tensor(np.array([[1.0, 3.0], [3.0, 2.0]]), requires_grad=True)
        a.max().backward()
        assert np.allclose(a.grad, [[0.0, 0.5], [0.5, 0.0]])

    def test_global_reduction_keepdims(self):
        a = Tensor(np.array([[1.0, 3.0], [3.0, 2.0]]), requires_grad=True)
        out = a.max(keepdims=True)
        assert out.shape == (1, 1)
        out.sum().backward()
        assert np.allclose(a.grad, [[0.0, 0.5], [0.5, 0.0]])

    def test_per_axis_reduction_splits_ties(self):
        a = Tensor(np.array([[1.0, 3.0], [3.0, 3.0]]), requires_grad=True)
        a.max(axis=0).sum().backward()
        assert np.allclose(a.grad, [[0.0, 0.5], [1.0, 0.5]])

    def test_negative_axis(self):
        a = Tensor(np.array([[2.0, 2.0], [1.0, 5.0]]), requires_grad=True)
        a.max(axis=-1).sum().backward()
        assert np.allclose(a.grad, [[0.5, 0.5], [0.0, 1.0]])

    def test_tuple_axis_reduction(self):
        data = np.zeros((2, 2, 2))
        data[0, 0, 0] = data[1, 1, 1] = 7.0  # tie across the reduced axes
        a = Tensor(data, requires_grad=True)
        out = a.max(axis=(0, 2))
        assert out.shape == (2,)
        out.sum().backward()
        expected = np.zeros((2, 2, 2))
        expected[0, 0, 0] = expected[1, 1, 1] = 1.0  # unique max per slice
        assert np.allclose(a.grad, expected)

    def test_global_gradcheck_multidim(self):
        from repro.nn.gradcheck import gradcheck

        a = Tensor(RNG.standard_normal((3, 4)), requires_grad=True)
        gradcheck(lambda t: t.max(), [a])

    def test_min_shares_tie_splitting(self):
        a = Tensor(np.array([[-3.0, 1.0], [-3.0, 2.0]]), requires_grad=True)
        a.min().backward()
        assert np.allclose(a.grad, [[0.5, 0.0], [0.5, 0.0]])


class TestTransposeGradientLayout:
    """A transpose hands its input the gradient in the input's own memory
    layout: a permuted view that already has it is adopted, anything else
    is copied into it."""

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_gradient_takes_the_input_layout(self, order):
        x = Tensor(np.asarray(np.arange(6.0).reshape(2, 3), order=order), requires_grad=True)
        weights = np.arange(6.0).reshape(3, 2)
        (x.T * Tensor(weights)).sum().backward()
        assert np.array_equal(x.grad, weights.T)
        assert x.grad.strides == x.data.strides


class TestReshapeGradientAdoption:
    """A reshape hands its input the reshaped gradient without a copy when
    that view is C-contiguous, the layout a copy would have: the output's
    gradient is dead once its backward returns."""

    def test_backward_allocates_no_gradient_sized_copy(self):
        x = Tensor(np.ones(1 << 20), requires_grad=True)  # 8 MiB
        loss = x.reshape(1024, 1024).sum()
        tracemalloc.start()
        try:
            loss.backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(x.grad, np.ones(1 << 20))
        assert x.grad.flags.c_contiguous
        # The sum's backward allocates the one gradient-sized array and the
        # reshape passes it on; a copy would double the peak.
        assert peak < 1.5 * x.data.nbytes


def _backward_peak(loss: Tensor) -> int:
    """Peak bytes traced while ``loss.backward()`` runs."""
    tracemalloc.start()
    try:
        loss.backward()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestUnkeptOperandGradients:
    """``*`` and ``-`` form no gradient for an operand that does not require
    grad (dropout's mask, Eq 1's window, constants): ``_accum`` would drop
    it, so forming it only costs a gradient-sized array."""

    # The sum's backward materialises its gradient and the op forms x's:
    # two gradient-sized arrays.  One formed for the constant is a third.
    BOUND = 2.5

    def test_mul_forms_no_product_for_a_constant(self):
        x = Tensor(np.ones(1 << 20), requires_grad=True)  # 8 MiB
        mask = np.random.default_rng(0).standard_normal(1 << 20)
        peak = _backward_peak((x * Tensor(mask)).sum())
        assert np.array_equal(x.grad, mask)
        assert peak < self.BOUND * x.data.nbytes

    def test_sub_forms_no_negation_for_a_constant(self):
        x = Tensor(np.ones(1 << 20), requires_grad=True)
        peak = _backward_peak((x - Tensor(np.ones(1 << 20))).sum())
        assert np.array_equal(x.grad, np.ones(1 << 20))
        assert peak < self.BOUND * x.data.nbytes

    def test_kept_gradients_are_unchanged(self):
        rng = np.random.default_rng(1)
        a_data, b_data, g = (rng.standard_normal((3, 4)) for _ in range(3))
        a, b = Tensor(a_data, requires_grad=True), Tensor(b_data, requires_grad=True)
        (a * b).backward(g)
        assert np.array_equal(a.grad, g * b_data) and np.array_equal(b.grad, g * a_data)
        a, b = Tensor(a_data, requires_grad=True), Tensor(b_data, requires_grad=True)
        (a - b).backward(g)
        assert np.array_equal(a.grad, g) and np.array_equal(b.grad, -g)
        # A constant on the left of the product still hands b its gradient.
        b = Tensor(b_data, requires_grad=True)
        (Tensor(a_data) * b).backward(g)
        assert np.array_equal(b.grad, g * a_data)


class TestTakePermutation:
    """One permutation per leading index gathers like fancy indexing, and
    its backward, the inverse gather, gives the fancy-index gradient
    bitwise (``tests/core/test_corruption.py`` checks that no ``np.add.at``
    runs)."""

    @staticmethod
    def _stack(seed=0):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((3, 4, 7, 2))  # (B, T, N, d)
        perms = np.stack([rng.permutation(7) for _ in range(3)])
        return data, perms, rng.standard_normal(data.shape)

    def test_matches_the_fancy_index_gather_and_its_gradient(self):
        data, perms, g = self._stack()
        fancy = Tensor(data, requires_grad=True)
        index = (np.arange(3).reshape(3, 1, 1), np.arange(4).reshape(1, 4, 1), perms[:, None, :])
        expected = fancy[index]
        expected.backward(g)
        x = Tensor(data, requires_grad=True)
        out = take_permutation(x, perms.reshape(3, 1, 7, 1), axis=2)
        assert np.array_equal(out.data, expected.data)
        out.backward(g)
        assert np.array_equal(x.grad, fancy.grad)

    def test_no_grad_matches_the_graph_path(self):
        data, perms, _ = self._stack(1)
        order = perms.reshape(3, 1, 7, 1)
        graph = take_permutation(Tensor(data, requires_grad=True), order, axis=2).data
        with no_grad():
            assert np.array_equal(take_permutation(Tensor(data), order, axis=2).data, graph)

    def test_gradcheck(self):
        data, perms, weights = self._stack(2)
        gradcheck(
            lambda x: take_permutation(x, perms.reshape(3, 1, 7, 1), axis=2) * Tensor(weights),
            [Tensor(data, requires_grad=True)],
        )


class TestBackwardBufferSafety:
    """Regression tests for the own= gradient-buffer adoption fast path."""

    def test_root_grad_survives_parent_adoption(self):
        """z = m + x hands z's grad buffer to x; later accumulation into x
        must not mutate the value z.grad reports after backward()."""
        x = Tensor(np.array([1.0]), requires_grad=True)
        m = x * 2.0
        z = m + x
        z.backward()
        assert np.allclose(z.grad, [1.0])
        assert np.allclose(x.grad, [3.0])

    def test_tuple_fancy_index_accumulates_repeats(self):
        """An inner tuple index is fancy indexing: repeated entries must
        accumulate, not last-write-win."""
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        x[:, (0, 0)].sum().backward()
        assert np.allclose(x.grad, [[2.0, 0.0, 0.0], [2.0, 0.0, 0.0]])

    def test_list_fancy_index_accumulates_repeats(self):
        x = Tensor(np.arange(4.0), requires_grad=True)
        x[[1, 1, 3]].sum().backward()
        assert np.allclose(x.grad, [0.0, 2.0, 0.0, 1.0])

    def test_basic_index_fast_path(self):
        x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        x[1:, ::2].sum().backward()
        expected = np.zeros((3, 4))
        expected[1:, ::2] = 1.0
        assert np.allclose(x.grad, expected)

    def test_boolean_mask_fast_path(self):
        x = Tensor(np.arange(4.0), requires_grad=True)
        mask = np.array([True, False, True, False])
        x[mask].sum().backward()
        assert np.allclose(x.grad, [1.0, 0.0, 1.0, 0.0])
