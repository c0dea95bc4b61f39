"""Edge-case and failure-injection tests for the nn substrate."""

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor
from repro.nn import functional as F
from repro.nn.ops import conv1d, conv2d


class TestDegenerateShapes:
    def test_scalar_tensor_arithmetic(self):
        a = Tensor(2.0, requires_grad=True)
        (a * a).backward()
        assert a.grad.shape == ()
        assert float(a.grad) == 4.0

    def test_empty_axis_reduction(self):
        a = Tensor(np.zeros((0, 3)))
        assert a.sum().item() == 0.0

    def test_single_element_softmax(self):
        out = F.softmax(Tensor(np.array([[5.0]])))
        assert out.data[0, 0] == pytest.approx(1.0)

    def test_conv2d_kernel_equals_input(self):
        x = Tensor(np.ones((1, 1, 3, 3)), requires_grad=True)
        w = Tensor(np.ones((1, 1, 3, 3)), requires_grad=True)
        out = conv2d(x, w)
        assert out.shape == (1, 1, 1, 1)
        assert out.data[0, 0, 0, 0] == 9.0

    def test_conv1d_length_one_output(self):
        x = Tensor(np.ones((1, 1, 3)))
        w = Tensor(np.ones((1, 1, 3)))
        assert conv1d(x, w).shape == (1, 1, 1)

    def test_linear_batch_of_one(self):
        layer = nn.Linear(3, 2, np.random.default_rng(0))
        assert layer(Tensor(np.zeros((1, 3)))).shape == (1, 2)


class TestNumericalStability:
    def test_softmax_on_huge_logits(self):
        out = F.softmax(Tensor(np.array([[1e8, 0.0, -1e8]])))
        assert np.all(np.isfinite(out.data))
        assert out.data[0, 0] == pytest.approx(1.0)

    def test_log_softmax_no_minus_inf_on_reasonable_inputs(self):
        out = F.log_softmax(Tensor(np.array([[100.0, 0.0]])))
        assert np.all(np.isfinite(out.data))

    def test_sigmoid_saturated_gradient_is_zero_not_nan(self):
        a = Tensor(np.array([1000.0, -1000.0]), requires_grad=True)
        a.sigmoid().sum().backward()
        assert np.all(np.isfinite(a.grad))

    def test_normalize_zero_vector(self):
        out = F.normalize(Tensor(np.zeros((2, 3))))
        assert np.all(np.isfinite(out.data))

    def test_adam_with_zero_gradient(self):
        p = nn.Parameter(np.ones(3))
        opt = nn.Adam([p], lr=0.1)
        p.grad = np.zeros(3)
        opt.step()
        assert np.allclose(p.data, 1.0)

    def test_clip_grad_handles_zero_norm(self):
        p = nn.Parameter(np.ones(3))
        p.grad = np.zeros(3)
        assert nn.clip_grad_norm([p], 1.0) == 0.0


class TestGraphLifecycle:
    def test_backward_frees_graph(self):
        """After backward, retained references are dropped (no leak)."""
        a = Tensor(np.ones(3), requires_grad=True)
        out = (a * 2.0).sum()
        out.backward()
        assert out._parents == ()
        assert out._backward is None

    def test_second_backward_after_free_is_safe_noop_graph(self):
        a = Tensor(np.ones(3), requires_grad=True)
        out = (a * 2.0).sum()
        out.backward()
        grad_first = a.grad.copy()
        # Graph is freed; calling backward again only reseeds out.grad.
        out.backward()
        assert np.allclose(a.grad, grad_first)

    def test_diamond_graph_gradient(self):
        """x feeds two paths that rejoin: gradients accumulate once per path."""
        x = Tensor(np.array([2.0]), requires_grad=True)
        left = x * 3.0
        right = x * 5.0
        (left + right).sum().backward()
        assert x.grad[0] == pytest.approx(8.0)

    def test_deep_chain_no_recursion_error(self):
        """Iterative topo-sort handles graphs deeper than Python's
        recursion limit."""
        x = Tensor(np.ones(2), requires_grad=True)
        out = x
        for _ in range(3000):
            out = out + 1.0
        out.sum().backward()
        assert np.allclose(x.grad, 1.0)


class TestDtypePromotion:
    def test_bool_array_promoted(self):
        t = Tensor(np.array([True, False]))
        assert t.dtype.kind == "f"

    def test_python_list_input(self):
        t = Tensor([[1, 2], [3, 4]])
        assert t.shape == (2, 2)
        assert t.dtype.kind == "f"

    @pytest.mark.parametrize("dtype", ["float16", "int32"])
    def test_default_dtype_is_float32_or_float64(self, dtype):
        with pytest.raises(ValueError, match="float32 or float64"):
            nn.set_default_dtype(dtype)
        with pytest.raises(ValueError, match="float32 or float64"):
            with nn.dtype_scope(dtype):
                pass
        assert nn.get_default_dtype() == np.float64
