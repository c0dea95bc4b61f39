"""Convolution op tests: values against scipy, gradients against finite diff.

``conv1d``/``conv2d`` run one kernel (batch-folded single gemm) on every
path and ``time_conv`` runs one banded gemm per window, so the
references are independent ones: ``scipy.signal.correlate2d`` and
``np.correlate`` for values, central differences for gradients.
Every value case also runs on both execution paths — the graph-building
forward and ``no_grad`` + ``use_arena`` — which must agree bit for bit,
both as one kernel tile and as several (the ``tiles`` fixture), and with
the input laid out C-contiguous ``(N, C, ...)`` and channel-major (the
``layout`` fixture), whose outputs and gradients must agree bit for bit.
"""

import contextlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy.signal import correlate2d

from repro.core import GlobalTemporalEncoder
from repro.nn import BufferArena, Conv1d, Conv2d, Tensor, dtype_scope, kernels, no_grad, use_arena
from repro.nn.gradcheck import gradcheck
from repro.nn.ops import conv1d, conv2d, time_conv

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
# Batch of the tiled cases: tiles of 2, 2 and 1 under the two-item budget.
BATCH = 5


def _t(*shape):
    return Tensor(RNG.standard_normal(shape), requires_grad=True)


def _arrays(dtype, *shapes, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(shape).astype(dtype) for shape in shapes]


def _two_item_budget(op, arrays, **kwargs):
    """A tile budget holding the patches of exactly two batch items of ``op``."""
    with no_grad():
        out = op(*(Tensor(a) for a in arrays), **kwargs).data
    return 2 * math.prod(arrays[1].shape[1:]) * math.prod(out.shape[2:]) * out.itemsize


@pytest.fixture(params=["one_tile", "multi_tile"])
def tiles(request, monkeypatch):
    """Set how the conv kernel tiles the batch of a given call.

    Returns ``split(op, arrays, **kwargs)``.  Under "one_tile" it keeps the
    default budget, which holds every batch in this module in one tile;
    under "multi_tile" it patches the budget to two batch items of that
    call, so a BATCH-item call runs as three tiles with a partial last one.
    """

    def split(op, arrays, **kwargs):
        if request.param == "multi_tile":
            monkeypatch.setattr(kernels, "TILE_BYTES", _two_item_budget(op, arrays, **kwargs))

    return split


@pytest.fixture(params=["nchw", "channel_major"])
def layout(request):
    """Lay out a conv's input in memory.

    Returns ``lay(arrays)``, which leaves every array but the input (the
    first) alone.  Under "nchw" the input stays a C-contiguous ``(N, C,
    ...)`` array, which the conv copies once; under "channel_major" it is
    passed as ``a.swapaxes(0, 1)`` of a C-contiguous ``(C, N, ...)``
    array — the view ST-HSL's encoders hand their convs, which the kernel
    reads in place.
    """

    def lay(arrays):
        x, *rest = arrays
        if request.param == "channel_major":
            x = np.ascontiguousarray(x.swapaxes(0, 1)).swapaxes(0, 1)
        return [x, *rest]

    return lay


def _both_paths(op, arrays, **kwargs):
    """``op`` on the graph path and under no_grad + arena, and on C-contiguous
    copies of ``arrays``; all three must be bitwise-equal."""
    graph = op(*(Tensor(a, requires_grad=True) for a in arrays), **kwargs).data
    with no_grad(), use_arena(BufferArena()):
        fast = op(*(Tensor(a) for a in arrays), **kwargs).data.copy()
    assert np.array_equal(graph, fast)
    contiguous = op(*(Tensor(np.ascontiguousarray(a)) for a in arrays), **kwargs).data
    assert np.array_equal(graph, contiguous)
    return graph


def _grads(fn, arrays):
    """The analytic gradients of ``sum(fn(*arrays))``."""
    inputs = [Tensor(a, requires_grad=True) for a in arrays]
    fn(*inputs).sum().backward()
    return [t.grad for t in inputs]


def _gradcheck(fn, arrays, **settings):
    """Gradcheck ``fn`` on ``arrays``; its gradients must also be
    bitwise-equal to those of C-contiguous copies of ``arrays``."""
    gradcheck(fn, [Tensor(a, requires_grad=True) for a in arrays], **settings)
    contiguous = _grads(fn, [np.ascontiguousarray(a) for a in arrays])
    for grad, expected in zip(_grads(fn, arrays), contiguous):
        assert np.array_equal(grad, expected)


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
    def test_matches_scipy_on_both_paths(self, tiles, layout, dtype, kernel, stride, padding):
        x, w, b = layout(_arrays(dtype, (BATCH, 3, 6, 7), (4, 3, *kernel), (4,)))
        tiles(conv2d, (x, w, b), stride=stride, padding=padding)
        out = _both_paths(conv2d, (x, w, b), stride=stride, padding=padding)
        assert out.dtype == dtype
        np.testing.assert_allclose(
            out, _reference_conv2d(x, w, b, stride, padding), **VALUE_TOL[dtype]
        )

    @pytest.mark.parametrize("wide", [1, 2], ids=["weight", "bias"])
    def test_mixed_dtype_promotes_to_float64(self, layout, wide):
        # float32 input with float64 weights or bias: the whole call
        # computes in float64 (np.result_type of all three) and matches the
        # float64 reference at f64 tolerance.
        arrays = layout(_arrays("float32", (2, 3, 5, 6), (4, 3, 3, 3), (4,)))
        arrays[wide] = arrays[wide].astype(np.float64)
        out = _both_paths(conv2d, arrays, padding=1)
        assert out.dtype == np.float64
        np.testing.assert_allclose(out, _reference_conv2d(*arrays, 1, 1), **VALUE_TOL["float64"])

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
    def test_gradcheck_plain(self, layout):
        arrays = layout(_arrays("float64", (2, 2, 5, 4), (3, 2, 3, 3)))
        _gradcheck(lambda x, w: conv2d(x, w), arrays)

    def test_gradcheck_with_bias_padding_stride(self, layout):
        arrays = layout(_arrays("float64", (1, 2, 5, 5), (2, 2, 3, 3), (2,)))
        _gradcheck(lambda x, w, b: conv2d(x, w, b, stride=2, padding=1), arrays)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_gradcheck_per_dtype(self, layout, dtype):
        arrays = layout(_arrays(dtype, (2, 2, 5, 4), (3, 2, 3, 3), (3,)))
        _gradcheck(
            lambda x, w, b: conv2d(x, w, b, stride=1, padding=1), arrays, **GRADCHECK_SETTINGS[dtype]
        )

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_gradcheck_strided_batch(self, tiles, layout, dtype):
        arrays = layout(_arrays(dtype, (BATCH, 2, 6, 5), (3, 2, 3, 3), (3,)))
        tiles(conv2d, arrays, stride=2, padding=1)
        _gradcheck(
            lambda x, w, b: conv2d(x, w, b, stride=2, padding=1), arrays, **GRADCHECK_SETTINGS[dtype]
        )

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("kernel", [(3, 3), (2, 3)])
    @pytest.mark.parametrize("stride,padding", [((1, 2), (2, 0)), ((2, 1), (0, 1))])
    def test_gradcheck_per_axis_geometry(self, tiles, layout, dtype, kernel, stride, padding):
        arrays = layout(_arrays(dtype, (BATCH, 2, 6, 7), (3, 2, *kernel), (3,)))
        tiles(conv2d, arrays, stride=stride, padding=padding)
        _gradcheck(
            lambda x, w, b: conv2d(x, w, b, stride=stride, padding=padding),
            arrays,
            **GRADCHECK_SETTINGS[dtype],
        )

    def test_gradcheck_mixed_dtype(self, layout):
        # float32 input, float64 weights: the backward runs on the promoted
        # operands; the coarse f32 settings cover the f32 input's steps.
        x, w, b = layout(_arrays("float32", (2, 2, 5, 4), (3, 2, 3, 3), (3,)))
        _gradcheck(
            lambda x, w, b: conv2d(x, w, b, padding=1),
            [x, w.astype(np.float64), b],
            **GRADCHECK_SETTINGS["float32"],
        )


class TestConvOutputContract:
    """Output size follows the closed form per axis; dtype is ``np.result_type``.

    float32 inputs meet float32 and float64 weights on padded, unpadded,
    strided and dilated geometries; values match the float64 reference.
    """

    @pytest.mark.parametrize("w_dtype", DTYPES)
    @pytest.mark.parametrize("stride,padding", [(1, 1), (2, 0), (2, 1)])
    def test_conv2d(self, tiles, layout, w_dtype, stride, padding):
        x, w, b = layout(_arrays("float32", (BATCH, 3, 8, 8), (5, 3, 3, 3), (5,)))
        w = w.astype(w_dtype)
        tiles(conv2d, (x, w, b), stride=stride, padding=padding)
        out = _both_paths(conv2d, (x, w, b), stride=stride, padding=padding)
        side = (8 + 2 * padding - 3) // stride + 1
        assert out.shape == (BATCH, 5, side, side)
        assert out.dtype == np.result_type(x, w)
        np.testing.assert_allclose(
            out, _reference_conv2d(x, w, b, stride, padding), **VALUE_TOL[out.dtype.name]
        )

    @pytest.mark.parametrize("w_dtype", DTYPES)
    @pytest.mark.parametrize("stride,padding,dilation", [(1, 1, 1), (1, 2, 2), (2, 0, 1)])
    def test_conv1d(self, tiles, layout, w_dtype, stride, padding, dilation):
        x, w = layout(_arrays("float32", (BATCH, 3, 16), (4, 3, 3)))
        w = w.astype(w_dtype)
        tiles(conv1d, (x, w), stride=stride, padding=padding, dilation=dilation)
        out = _both_paths(conv1d, (x, w), stride=stride, padding=padding, dilation=dilation)
        length = (16 + 2 * padding - dilation * (3 - 1) - 1) // stride + 1
        assert out.shape == (BATCH, 4, length)
        assert out.dtype == np.result_type(x, w)
        np.testing.assert_allclose(
            out,
            _reference_conv1d(x, w, np.zeros(4), stride, padding, dilation),
            **VALUE_TOL[out.dtype.name],
        )

    @pytest.mark.parametrize("height,width", [(2, 5), (5, 2)], ids=["height", "width"])
    def test_conv2d_kernel_larger_than_input_raises(self, height, width):
        x, w = _arrays("float64", (1, 1, height, width), (1, 1, 3, 3))
        with pytest.raises(ValueError, match="conv2d output size <= 0"):
            conv2d(Tensor(x), Tensor(w))
        with no_grad(), pytest.raises(ValueError, match="conv2d output size <= 0"):
            conv2d(Tensor(x), Tensor(w))
        assert conv2d(Tensor(x), Tensor(w), padding=1).shape == (1, 1, height, width)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize(
        "op,shapes,kwargs",
        [
            (conv2d, [(BATCH, 3, 6, 6), (4, 3, 3, 3), (4,)], {"padding": 1}),
            (conv1d, [(BATCH, 3, 11), (4, 3, 3), (4,)], {"padding": 2, "dilation": 2}),
        ],
        ids=["conv2d", "conv1d"],
    )
    def test_tiled_kernel_matches_one_tile(self, monkeypatch, layout, dtype, op, shapes, kwargs):
        # Not bitwise: BLAS picks its blocking by gemm shape, so tiles of
        # 2, 2 and 1 items may round differently from one 5-item gemm.
        arrays = layout(_arrays(dtype, *shapes))
        one_tile = op(*map(Tensor, arrays), **kwargs).data
        monkeypatch.setattr(kernels, "TILE_BYTES", _two_item_budget(op, arrays, **kwargs))
        tiled = op(*map(Tensor, arrays), **kwargs).data
        np.testing.assert_allclose(tiled, one_tile, **VALUE_TOL[dtype])


# Taps wholly in the padding: a conv1d over one step with a 7-tap kernel
# and padding 3, where six taps read only zeros, and a conv2d over one
# row with a 3x3 kernel and padding 1, where two kernel rows do.  Over
# two steps (rows) a 7-tap kernel's outer taps read only zeros too, and
# their unclamped spans would end at a negative bound that numpy counts
# from the end of the axis.
PADDING_ONLY_TAPS = pytest.mark.parametrize(
    "op,shapes,kwargs,reference",
    [
        (
            conv1d,
            [(BATCH, 3, 1), (4, 3, 7), (4,)],
            {"padding": 3},
            lambda x, w, b: _reference_conv1d(x, w, b, 1, 3, 1),
        ),
        (
            conv2d,
            [(BATCH, 3, 1, 7), (4, 3, 3, 3), (4,)],
            {"padding": 1},
            lambda x, w, b: _reference_conv2d(x, w, b, 1, 1),
        ),
        (
            conv1d,
            [(BATCH, 3, 2), (4, 3, 7), (4,)],
            {"padding": 3},
            lambda x, w, b: _reference_conv1d(x, w, b, 1, 3, 1),
        ),
        (
            conv2d,
            [(BATCH, 3, 2, 5), (4, 3, 7, 3), (4,)],
            {"padding": (3, 1)},
            lambda x, w, b: _reference_conv2d(x, w, b, 1, (3, 1)),
        ),
    ],
    ids=["conv1d", "conv2d", "conv1d_two_steps", "conv2d_two_rows"],
)


class TestPaddingOnlyTaps:
    """Taps that read only padding contribute zeros, and nothing to the gradients."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @PADDING_ONLY_TAPS
    def test_matches_reference_on_both_paths(
        self, tiles, layout, dtype, op, shapes, kwargs, reference
    ):
        arrays = layout(_arrays(dtype, *shapes))
        tiles(op, arrays, **kwargs)
        out = _both_paths(op, arrays, **kwargs)
        np.testing.assert_allclose(out, reference(*arrays), **VALUE_TOL[dtype])

    @pytest.mark.parametrize("dtype", DTYPES)
    @PADDING_ONLY_TAPS
    def test_gradcheck(self, tiles, layout, dtype, op, shapes, kwargs, reference):
        arrays = layout(_arrays(dtype, *shapes))
        tiles(op, arrays, **kwargs)
        _gradcheck(lambda x, w, b: op(x, w, b, **kwargs), arrays, **GRADCHECK_SETTINGS[dtype])


class TestGraphForwardMemory:
    """The graph-building forward keeps no patch matrix for the backward:
    the backward refills each tile's patches instead."""

    @pytest.mark.parametrize(
        "op,shapes,kwargs",
        [
            (conv2d, [(BATCH, 4, 6, 6), (2, 4, 3, 3), (2,)], {"padding": 1}),
            (conv1d, [(BATCH, 4, 16), (2, 4, 3), (2,)], {"padding": 1}),
        ],
        ids=["conv2d", "conv1d"],
    )
    def test_forward_holds_less_than_one_patch_matrix(self, monkeypatch, op, shapes, kwargs):
        arrays = _arrays("float64", *shapes)
        monkeypatch.setattr(kernels, "TILE_BYTES", _two_item_budget(op, arrays, **kwargs))
        inputs = [Tensor(a, requires_grad=True) for a in arrays]
        op(*inputs, **kwargs)  # warm up anything a first call allocates once
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = op(*inputs, **kwargs)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # (C_in, K, N, L): every batch item's patches, at float64.
        patch_matrix = math.prod(shapes[1][1:]) * BATCH * math.prod(out.shape[2:]) * 8
        assert held < patch_matrix
        out.sum().backward()
        assert all(t.grad is not None for t in inputs)


class TestChannelMajorInput:
    """The kernel's layout is channel-major, so a conv reads an input passed
    as the ``swapaxes(0, 1)`` of C-contiguous ``(C, N, ...)`` memory in
    place, and copies a C-contiguous ``(N, C, ...)`` input once."""

    @pytest.mark.parametrize(
        "op,shapes,kwargs",
        [
            (conv2d, [(BATCH, 8, 16, 16), (2, 8, 3, 3), (2,)], {"padding": 1}),
            (conv1d, [(BATCH, 8, 256), (2, 8, 3), (2,)], {"padding": 1}),
        ],
        ids=["conv2d", "conv1d"],
    )
    @pytest.mark.parametrize("layout,takes", [("nchw", 3), ("channel_major", 2)])
    def test_warm_call_reads_a_channel_major_input_in_place(
        self, op, shapes, kwargs, layout, takes
    ):
        x, w, b = _arrays("float64", *shapes)
        if layout == "channel_major":
            x = np.ascontiguousarray(x.swapaxes(0, 1)).swapaxes(0, 1)
        x, w, b = Tensor(x), Tensor(w), Tensor(b)
        arena = BufferArena()
        with no_grad(), use_arena(arena):
            op(x, w, b, **kwargs)  # warm: every buffer the call takes is pooled now
            before = arena.hits + arena.misses
            tracemalloc.start()
            try:
                op(x, w, b, **kwargs)
                allocated = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # The arena hands out the tile workspace and the output, plus the
        # input's copy when the input is not channel-major; nothing else
        # allocates as much as the input.
        assert arena.hits + arena.misses - before == takes
        assert allocated < x.data.nbytes


GRAD_MODES = pytest.mark.parametrize("grad", [True, False], ids=["grad", "no_grad"])


def _grad_mode(grad):
    return contextlib.nullcontext() if grad else no_grad()


class TestConvArguments:
    """Strides and dilations below 1, and negative paddings, raise
    ValueError before any kernel work."""

    @GRAD_MODES
    @pytest.mark.parametrize("stride", [0, (0, 1), (1, 0), -1])
    def test_conv2d_rejects_stride_below_one(self, grad, stride):
        x, w = _arrays("float64", (1, 1, 6, 6), (1, 1, 3, 3))
        with _grad_mode(grad), pytest.raises(ValueError, match="stride must be >= 1"):
            conv2d(Tensor(x, requires_grad=grad), Tensor(w, requires_grad=grad), stride=stride)

    @GRAD_MODES
    @pytest.mark.parametrize("channels", [(1, 1), (2, 2)], ids=["one_channel", "multi"])
    @pytest.mark.parametrize("stride,dilation", [(0, 1), (-1, 1), (1, 0), (1, -2)])
    def test_conv1d_rejects_stride_or_dilation_below_one(self, grad, channels, stride, dilation):
        c_in, c_out = channels
        x, w = _arrays("float64", (1, c_in, 8), (c_out, c_in, 3))
        with _grad_mode(grad), pytest.raises(ValueError, match="dilation must be >= 1"):
            conv1d(
                Tensor(x, requires_grad=grad),
                Tensor(w, requires_grad=grad),
                stride=stride,
                dilation=dilation,
            )

    @GRAD_MODES
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [-1, (-1, 0), (0, -1)])
    def test_conv2d_rejects_negative_padding(self, grad, stride, padding):
        x, w = _arrays("float64", (1, 1, 6, 6), (1, 1, 3, 3))
        with _grad_mode(grad), pytest.raises(ValueError, match="padding must be >= 0"):
            conv2d(
                Tensor(x, requires_grad=grad),
                Tensor(w, requires_grad=grad),
                stride=stride,
                padding=padding,
            )

    @GRAD_MODES
    @pytest.mark.parametrize("channels", [(1, 1), (2, 2)], ids=["one_channel", "multi"])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv1d_rejects_negative_padding(self, grad, channels, stride):
        c_in, c_out = channels
        x, w = _arrays("float64", (1, c_in, 8), (c_out, c_in, 3))
        with _grad_mode(grad), pytest.raises(ValueError, match="padding must be >= 0"):
            conv1d(
                Tensor(x, requires_grad=grad),
                Tensor(w, requires_grad=grad),
                stride=stride,
                padding=-1,
            )

    @GRAD_MODES
    def test_layers_reject_negative_padding_at_forward(self, grad):
        rng = np.random.default_rng(0)
        layers = [
            (Conv2d(2, 2, 3, rng, padding=(0, -1)), (1, 2, 6, 6)),
            (Conv1d(2, 2, 3, rng, padding=-1), (1, 2, 8)),
        ]
        for layer, shape in layers:
            with _grad_mode(grad), pytest.raises(ValueError, match="padding must be >= 0"):
                layer(Tensor(rng.standard_normal(shape)))

    @GRAD_MODES
    def test_layers_reject_them_at_forward(self, grad):
        rng = np.random.default_rng(0)
        layers = [
            (Conv2d(2, 2, 3, rng, stride=(1, 0)), (1, 2, 6, 6)),
            (Conv1d(2, 2, 3, rng, stride=0), (1, 2, 8)),
            (Conv1d(2, 2, 3, rng, dilation=0), (1, 2, 8)),
        ]
        for layer, shape in layers:
            with _grad_mode(grad), pytest.raises(ValueError, match=">= 1"):
                layer(Tensor(rng.standard_normal(shape)))


class TestConv1dForward:
    def test_matches_manual(self):
        x, w = _t(1, 1, 8), _t(1, 1, 3)
        out = conv1d(x, w)
        expected = np.correlate(x.data[0, 0], w.data[0, 0], mode="valid")
        assert np.allclose(out.data[0, 0], expected)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("channels", [(1, 1), (3, 4)], ids=["one_channel", "multi"])
    @pytest.mark.parametrize(
        "stride,padding,dilation", [(1, 0, 1), (1, 1, 1), (2, 1, 1), (1, 2, 2), (2, 2, 2)]
    )
    def test_matches_correlate_on_both_paths(
        self, tiles, layout, dtype, channels, stride, padding, dilation
    ):
        c_in, c_out = channels
        x, w, b = layout(_arrays(dtype, (BATCH, c_in, 11), (c_out, c_in, 3), (c_out,)))
        tiles(conv1d, (x, w, b), stride=stride, padding=padding, dilation=dilation)
        out = _both_paths(conv1d, (x, w, b), stride=stride, padding=padding, dilation=dilation)
        assert out.dtype == dtype
        np.testing.assert_allclose(
            out, _reference_conv1d(x, w, b, stride, padding, dilation), **VALUE_TOL[dtype]
        )

    @pytest.mark.parametrize("wide", [1, 2], ids=["weight", "bias"])
    def test_mixed_dtype_promotes_to_float64(self, layout, wide):
        arrays = layout(_arrays("float32", (2, 3, 9), (4, 3, 3), (4,)))
        arrays[wide] = arrays[wide].astype(np.float64)
        out = _both_paths(conv1d, arrays, padding=1)
        assert out.dtype == np.float64
        np.testing.assert_allclose(out, _reference_conv1d(*arrays, 1, 1, 1), **VALUE_TOL["float64"])

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
    def test_gradcheck_plain(self, layout):
        _gradcheck(lambda x, w: conv1d(x, w), layout(_arrays("float64", (2, 2, 6), (3, 2, 3))))

    def test_gradcheck_dilated_padded(self, layout):
        arrays = layout(_arrays("float64", (1, 2, 8), (2, 2, 2), (2,)))
        _gradcheck(lambda x, w, b: conv1d(x, w, b, padding=2, dilation=2), arrays)

    def test_gradcheck_stride(self, layout):
        _gradcheck(
            lambda x, w: conv1d(x, w, stride=2), layout(_arrays("float64", (1, 1, 9), (1, 1, 3)))
        )

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_gradcheck_per_dtype(self, layout, dtype):
        arrays = layout(_arrays(dtype, (2, 2, 7), (3, 2, 3), (3,)))
        _gradcheck(
            lambda x, w, b: conv1d(x, w, b, stride=1, padding=2, dilation=2),
            arrays,
            **GRADCHECK_SETTINGS[dtype],
        )

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_gradcheck_strided_batch(self, tiles, layout, dtype):
        arrays = layout(_arrays(dtype, (BATCH, 2, 9), (3, 2, 3), (3,)))
        tiles(conv1d, arrays, stride=2, padding=1)
        _gradcheck(
            lambda x, w, b: conv1d(x, w, b, stride=2, padding=1), arrays, **GRADCHECK_SETTINGS[dtype]
        )

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("channels", [(1, 1), (3, 2)], ids=["one_channel", "multi"])
    @pytest.mark.parametrize("stride,padding,dilation", [(2, 1, 1), (1, 2, 2), (2, 2, 2)])
    def test_gradcheck_geometry(self, tiles, layout, dtype, channels, stride, padding, dilation):
        c_in, c_out = channels
        arrays = layout(_arrays(dtype, (BATCH, c_in, 11), (c_out, c_in, 3), (c_out,)))
        tiles(conv1d, arrays, stride=stride, padding=padding, dilation=dilation)
        _gradcheck(
            lambda x, w, b: conv1d(x, w, b, stride=stride, padding=padding, dilation=dilation),
            arrays,
            **GRADCHECK_SETTINGS[dtype],
        )

    def test_gradcheck_mixed_dtype(self, layout):
        x, w, b = layout(_arrays("float32", (2, 2, 9), (3, 2, 3), (3,)))
        _gradcheck(
            lambda x, w, b: conv1d(x, w, b, padding=2, dilation=2),
            [x, w.astype(np.float64), b],
            **GRADCHECK_SETTINGS["float32"],
        )


def _reference_time_conv(x, kernel, bias):
    """``np.correlate`` per time sequence, K // 2 zeros on each side, plus the bias."""
    x, taps = x.astype(np.float64), kernel.astype(np.float64).ravel()
    half = taps.size // 2
    padded = np.pad(x, [(0, 0), (half, half)] + [(0, 0)] * (x.ndim - 2))
    out = np.empty(x.shape)
    for b in range(x.shape[0]):
        for index in np.ndindex(x.shape[2:]):
            sequence = (b, slice(None), *index)
            out[sequence] = np.correlate(padded[sequence], taps, mode="valid")
    return out + bias


class TestTimeConv:
    """Paper Eq. 5's shared-kernel "same" convolution along axis 1."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    @pytest.mark.parametrize("length", [1, 2, 14])
    def test_matches_correlate_on_both_paths(self, dtype, k, length):
        # length <= k // 2 shifts whole taps past the time axis (K 7, T 2).
        arrays = _arrays(dtype, (3, length, 4, 2), (1, 1, k), (2,))
        out = _both_paths(time_conv, arrays)
        assert out.shape == (3, length, 4, 2) and out.dtype == dtype
        np.testing.assert_allclose(out, _reference_time_conv(*arrays), **VALUE_TOL[dtype])

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_empty_stack(self, dtype):
        # B = 0: an empty output on both paths, and zero kernel and bias
        # gradients.
        arrays = _arrays(dtype, (0, 14, 4, 2), (1, 1, 3), (2,))
        out = _both_paths(time_conv, arrays)
        assert out.shape == (0, 14, 4, 2) and out.dtype == dtype
        gx, gv, gc = _grads(time_conv, arrays)
        assert gx.shape == (0, 14, 4, 2)
        assert np.array_equal(gv, np.zeros((1, 1, 3))) and np.array_equal(gc, np.zeros(2))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("k,length", [(3, 6), (5, 4), (7, 2)])
    def test_gradcheck(self, dtype, k, length):
        shape = (2, length, 3, 2)
        x, kernel, bias, weights = _arrays(dtype, shape, (1, 1, k), (2,), shape)
        gradcheck(
            lambda x, kernel, bias: time_conv(x, kernel, bias) * Tensor(weights),
            [Tensor(a, requires_grad=True) for a in (x, kernel, bias)],
            **GRADCHECK_SETTINGS[dtype],
        )

    def test_warm_call_takes_every_buffer_from_the_arena(self):
        x, kernel, bias = map(Tensor, _arrays("float32", (4, 14, 8, 2), (1, 1, 3), (2,)))
        arena = BufferArena()
        with no_grad(), use_arena(arena):
            time_conv(x, kernel, bias)
            misses = arena.misses
            out = time_conv(x, kernel, bias).data
            assert arena.misses == misses
            assert any(out.base is slab for slab in arena._in_use)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_encoder_matches_the_conv1d_layout(self, dtype):
        # Each Eq. 5 layer equals the one-channel conv1d over (B*N*d, 1, T)
        # sequences, transposed back, plus the bias, through LeakyReLU.
        with dtype_scope(dtype):
            encoder = GlobalTemporalEncoder(4, 3, 2, 0.0, 0.2, np.random.default_rng(0))
        for layer, bias in zip(encoder.layers, _arrays(dtype, (4,), (4,))):
            layer.bias.data[...] = bias
        (x,) = _arrays(dtype, (3, 9, 5, 4), seed=1)
        expected = x
        for layer in encoder.layers:
            b, t, n, d = expected.shape
            flat = expected.transpose(0, 2, 3, 1).reshape(b * n * d, 1, t)
            conv = conv1d(Tensor(flat), layer.kernel, padding=1).data
            out = conv.reshape(b, n, d, t).transpose(0, 3, 1, 2) + layer.bias.data
            expected = np.where(out > 0, out, 0.2 * out)
        np.testing.assert_allclose(encoder(Tensor(x)).data, expected, **VALUE_TOL[dtype])
