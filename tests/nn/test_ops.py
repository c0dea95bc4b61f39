"""Convolution op tests: values against scipy, gradients against finite diff.

``conv1d``/``conv2d`` run one kernel (batch-folded single gemm) on every
path, so the references are independent ones: ``scipy.signal.correlate2d``
and ``np.correlate`` for values, central differences for gradients.
Every value case also runs on both execution paths — the graph-building
forward and ``no_grad`` + ``use_arena`` — which must agree bit for bit.
"""

import numpy as np
import pytest
from scipy.signal import correlate2d

from repro.nn import BufferArena, Tensor, no_grad, use_arena
from repro.nn.gradcheck import gradcheck
from repro.nn.ops import conv1d, conv2d

RNG = np.random.default_rng(1)
DTYPES = ["float64", "float32"]
# Value tolerance against the float64 reference, per compute dtype.
VALUE_TOL = {"float64": {"rtol": 1e-10, "atol": 1e-12}, "float32": {"rtol": 1e-4, "atol": 1e-5}}
# f32 central differences are noisy (machine eps ~1.2e-7), so the f32
# rows run with a coarse step and loose tolerances; f64 stays tight.
GRADCHECK_SETTINGS = {
    "float64": {"eps": 1e-6, "rtol": 1e-4, "atol": 1e-6},
    "float32": {"eps": 1e-2, "rtol": 2e-2, "atol": 2e-2},
}


def _t(*shape):
    return Tensor(RNG.standard_normal(shape), requires_grad=True)


def _arrays(dtype, *shapes, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(shape).astype(dtype) for shape in shapes]


def _both_paths(op, arrays, **kwargs):
    """``op`` on the graph path and under no_grad + arena; they must be bitwise-equal."""
    graph = op(*(Tensor(a, requires_grad=True) for a in arrays), **kwargs).data
    with no_grad(), use_arena(BufferArena()):
        fast = op(*(Tensor(a) for a in arrays), **kwargs).data.copy()
    assert np.array_equal(graph, fast)
    return graph


def _pair(value):
    return (value, value) if isinstance(value, int) else value


def _reference_conv2d(x, w, b, stride, padding):
    """scipy ``correlate2d`` per (sample, output channel), summed over inputs."""
    (sh, sw), (ph, pw) = _pair(stride), _pair(padding)
    x, w = x.astype(np.float64), w.astype(np.float64)
    x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    return np.array(
        [
            [
                sum(correlate2d(sample[c], w[o, c], mode="valid") for c in range(w.shape[1]))[
                    ::sh, ::sw
                ]
                + b[o]
                for o in range(w.shape[0])
            ]
            for sample in x
        ]
    )


def _reference_conv1d(x, w, b, stride, padding, dilation):
    """``np.correlate`` against the zero-stuffed (dilated) kernel."""
    x, w = x.astype(np.float64), w.astype(np.float64)
    x = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    k = w.shape[-1]
    dilated = np.zeros(w.shape[:2] + ((k - 1) * dilation + 1,))
    dilated[..., ::dilation] = w
    return np.array(
        [
            [
                sum(np.correlate(sample[c], dilated[o, c], mode="valid") for c in range(w.shape[1]))[
                    ::stride
                ]
                + b[o]
                for o in range(w.shape[0])
            ]
            for sample in x
        ]
    )


class TestConv2dForward:
    def test_matches_scipy_single_channel(self):
        x, w = _t(1, 1, 6, 7), _t(1, 1, 3, 3)
        out = conv2d(x, w)
        expected = correlate2d(x.data[0, 0], w.data[0, 0], mode="valid")
        assert out.shape == (1, 1, 4, 5)
        assert np.allclose(out.data[0, 0], expected)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("kernel", [(3, 3), (2, 3)])
    @pytest.mark.parametrize(
        "stride,padding",
        [(1, 0), (1, 1), (1, 2), (2, 1), (2, 2), ((1, 2), (2, 0)), ((2, 1), (0, 1))],
    )
    def test_matches_scipy_on_both_paths(self, dtype, kernel, stride, padding):
        x, w, b = _arrays(dtype, (2, 3, 6, 7), (4, 3, *kernel), (4,))
        out = _both_paths(conv2d, (x, w, b), stride=stride, padding=padding)
        assert out.dtype == dtype
        np.testing.assert_allclose(
            out, _reference_conv2d(x, w, b, stride, padding), **VALUE_TOL[dtype]
        )

    def test_mixed_dtype_promotes_to_float64(self):
        # float32 input, float64 weights: the result is float64, like
        # np.matmul's, and matches the float64 reference at f64 tolerance.
        x, w, b = _arrays("float32", (2, 3, 5, 6), (4, 3, 3, 3), (4,))
        w = w.astype(np.float64)
        out = _both_paths(conv2d, (x, w, b), padding=1)
        assert out.dtype == np.float64
        np.testing.assert_allclose(out, _reference_conv2d(x, w, b, 1, 1), **VALUE_TOL["float64"])

    def test_padding_preserves_shape(self):
        x, w = _t(1, 2, 5, 5), _t(2, 2, 3, 3)
        assert conv2d(x, w, padding=1).shape == (1, 2, 5, 5)

    def test_stride(self):
        x, w = _t(1, 1, 7, 7), _t(1, 1, 3, 3)
        assert conv2d(x, w, stride=2).shape == (1, 1, 3, 3)

    def test_bias_added_per_channel(self):
        x, w = _t(1, 1, 4, 4), _t(2, 1, 3, 3)
        b = Tensor(np.array([10.0, -10.0]), requires_grad=True)
        out = conv2d(x, w, b)
        no_bias = conv2d(x, w)
        assert np.allclose(out.data[:, 0], no_bias.data[:, 0] + 10.0)
        assert np.allclose(out.data[:, 1], no_bias.data[:, 1] - 10.0)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError):
            conv2d(_t(1, 2, 4, 4), _t(1, 3, 3, 3))


class TestConv2dBackward:
    def test_gradcheck_plain(self):
        gradcheck(lambda x, w: conv2d(x, w), [_t(2, 2, 5, 4), _t(3, 2, 3, 3)])

    def test_gradcheck_with_bias_padding_stride(self):
        x, w, b = _t(1, 2, 5, 5), _t(2, 2, 3, 3), _t(2)
        gradcheck(lambda x, w, b: conv2d(x, w, b, stride=2, padding=1), [x, w, b])

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_gradcheck_per_dtype(self, dtype):
        arrays = _arrays(dtype, (2, 2, 5, 4), (3, 2, 3, 3), (3,))
        gradcheck(
            lambda x, w, b: conv2d(x, w, b, stride=1, padding=1),
            [Tensor(a, requires_grad=True) for a in arrays],
            **GRADCHECK_SETTINGS[dtype],
        )

    def test_gradcheck_strided_batch(self):
        arrays = _arrays("float64", (2, 2, 6, 5), (3, 2, 3, 3), (3,))
        gradcheck(
            lambda x, w, b: conv2d(x, w, b, stride=2, padding=1),
            [Tensor(a, requires_grad=True) for a in arrays],
        )

    @pytest.mark.parametrize("kernel", [(3, 3), (2, 3)])
    @pytest.mark.parametrize("stride,padding", [((1, 2), (2, 0)), ((2, 1), (0, 1))])
    def test_gradcheck_per_axis_geometry(self, kernel, stride, padding):
        arrays = _arrays("float64", (2, 2, 6, 7), (3, 2, *kernel), (3,))
        gradcheck(
            lambda x, w, b: conv2d(x, w, b, stride=stride, padding=padding),
            [Tensor(a, requires_grad=True) for a in arrays],
        )

    def test_gradcheck_mixed_dtype(self):
        # float32 input, float64 weights: the backward runs on the promoted
        # operands; the coarse f32 settings cover the f32 input's steps.
        x, w, b = _arrays("float32", (2, 2, 5, 4), (3, 2, 3, 3), (3,))
        gradcheck(
            lambda x, w, b: conv2d(x, w, b, padding=1),
            [Tensor(a, requires_grad=True) for a in (x, w.astype(np.float64), b)],
            **GRADCHECK_SETTINGS["float32"],
        )


class TestConv1dForward:
    def test_matches_manual(self):
        x, w = _t(1, 1, 8), _t(1, 1, 3)
        out = conv1d(x, w)
        expected = np.correlate(x.data[0, 0], w.data[0, 0], mode="valid")
        assert np.allclose(out.data[0, 0], expected)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("channels", [(1, 1), (3, 4)], ids=["fir", "multi"])
    @pytest.mark.parametrize(
        "stride,padding,dilation", [(1, 0, 1), (1, 1, 1), (2, 1, 1), (1, 2, 2), (2, 2, 2)]
    )
    def test_matches_correlate_on_both_paths(self, dtype, channels, stride, padding, dilation):
        c_in, c_out = channels
        x, w, b = _arrays(dtype, (2, c_in, 11), (c_out, c_in, 3), (c_out,))
        out = _both_paths(conv1d, (x, w, b), stride=stride, padding=padding, dilation=dilation)
        assert out.dtype == dtype
        np.testing.assert_allclose(
            out, _reference_conv1d(x, w, b, stride, padding, dilation), **VALUE_TOL[dtype]
        )

    def test_mixed_dtype_promotes_to_float64(self):
        x, w, b = _arrays("float32", (2, 3, 9), (4, 3, 3), (4,))
        w = w.astype(np.float64)
        out = _both_paths(conv1d, (x, w, b), padding=1)
        assert out.dtype == np.float64
        np.testing.assert_allclose(out, _reference_conv1d(x, w, b, 1, 1, 1), **VALUE_TOL["float64"])

    def test_dilation_spacing(self):
        x = Tensor(np.arange(8, dtype=float).reshape(1, 1, 8), requires_grad=True)
        w = Tensor(np.ones((1, 1, 2)), requires_grad=True)
        out = conv1d(x, w, dilation=3)
        # taps at offsets 0 and 3: out[i] = x[i] + x[i+3]
        assert out.shape == (1, 1, 5)
        assert np.allclose(out.data[0, 0], [3, 5, 7, 9, 11])

    def test_padding_same_length(self):
        x, w = _t(2, 3, 9), _t(4, 3, 3)
        assert conv1d(x, w, padding=1).shape == (2, 4, 9)

    def test_too_small_input_raises(self):
        with pytest.raises(ValueError):
            conv1d(_t(1, 1, 2), _t(1, 1, 5))


class TestConv1dBackward:
    def test_gradcheck_plain(self):
        gradcheck(lambda x, w: conv1d(x, w), [_t(2, 2, 6), _t(3, 2, 3)])

    def test_gradcheck_dilated_padded(self):
        x, w, b = _t(1, 2, 8), _t(2, 2, 2), _t(2)
        gradcheck(lambda x, w, b: conv1d(x, w, b, padding=2, dilation=2), [x, w, b])

    def test_gradcheck_stride(self):
        gradcheck(lambda x, w: conv1d(x, w, stride=2), [_t(1, 1, 9), _t(1, 1, 3)])

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_gradcheck_per_dtype(self, dtype):
        arrays = _arrays(dtype, (2, 2, 7), (3, 2, 3), (3,))
        gradcheck(
            lambda x, w, b: conv1d(x, w, b, stride=1, padding=2, dilation=2),
            [Tensor(a, requires_grad=True) for a in arrays],
            **GRADCHECK_SETTINGS[dtype],
        )

    def test_gradcheck_strided_batch(self):
        arrays = _arrays("float64", (2, 2, 9), (3, 2, 3), (3,))
        gradcheck(
            lambda x, w, b: conv1d(x, w, b, stride=2, padding=1),
            [Tensor(a, requires_grad=True) for a in arrays],
        )

    @pytest.mark.parametrize("channels", [(1, 1), (3, 2)], ids=["fir", "multi"])
    @pytest.mark.parametrize("stride,padding,dilation", [(2, 1, 1), (1, 2, 2), (2, 2, 2)])
    def test_gradcheck_geometry(self, channels, stride, padding, dilation):
        c_in, c_out = channels
        arrays = _arrays("float64", (2, c_in, 11), (c_out, c_in, 3), (c_out,))
        gradcheck(
            lambda x, w, b: conv1d(x, w, b, stride=stride, padding=padding, dilation=dilation),
            [Tensor(a, requires_grad=True) for a in arrays],
        )

    def test_gradcheck_mixed_dtype(self):
        x, w, b = _arrays("float32", (2, 2, 9), (3, 2, 3), (3,))
        gradcheck(
            lambda x, w, b: conv1d(x, w, b, padding=2, dilation=2),
            [Tensor(a, requires_grad=True) for a in (x, w.astype(np.float64), b)],
            **GRADCHECK_SETTINGS["float32"],
        )
