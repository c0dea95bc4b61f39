"""Convolution primitives for the autograd engine.

Implements 1-D and 2-D cross-correlation (the deep-learning "convolution").
ST-HSL uses 2-D convolutions over the region grid (Eq 2 of the paper) and
1-D convolutions over the time axis (Eq 3); several baselines
(ST-ResNet, STGCN, GWN, STDN, DMSTGCN) also build on these primitives.

:func:`conv2d` and :func:`conv1d` keep the ``(N, C, *spatial)`` shape
contract and run the tiled im2col kernel in :mod:`repro.nn.kernels`,
which works on channel-major memory, C-contiguous ``(C, N, *spatial)``,
in both directions.  Each op hands the kernel ``x.data.swapaxes(0, 1)``,
copied only when it is not already channel-major, and returns the
kernel's output viewed back with ``swapaxes(0, 1)``.  A caller that
keeps its activations channel-major (ST-HSL's local encoders) pays no
copy; one that passes C-contiguous ``(N, C, ...)`` arrays pays one.  The
backward takes the output gradient the same way and hands back an input
gradient over channel-major memory.  This module owns everything around
the kernel: argument checks, the output size, dtype promotion, the
layout swap, autograd graph construction and the bias gradient.

:func:`time_conv` is paper Eq. 5's convolution: one shared kernel slid
along axis 1 of a time-major ``(B, T, ..., d)`` tensor, run as one
banded ``(T, T)`` gemm per window, with its own backward.

Grad mode and the workspace-supplying arena are read through the
thread-local :class:`~repro.nn.context.ExecutionContext` (via
:func:`~repro.nn.tensor.is_grad_enabled` and
:func:`~repro.nn.arena.request`), so convolutions on concurrent threads
never observe each other's ``no_grad``/``use_arena`` scopes.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import _workspace, conv1d_gemm, conv1d_grads, conv2d_gemm, conv2d_grads
from .tensor import Tensor, is_grad_enabled

__all__ = ["conv2d", "conv1d", "time_conv"]


def _pair(value) -> tuple[int, int]:
    if isinstance(value, (tuple, list)):
        return int(value[0]), int(value[1])
    return int(value), int(value)


def _promote(
    x: Tensor, weight: Tensor, bias: Tensor | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Cast the kernel's operands to their common dtype.

    The kernel's gemms and bias add write into ``out=`` buffers of the
    input's dtype, so a float32 input with float64 weights (or bias)
    would silently compute in float32; promoting all three first keeps
    the output dtype ``np.result_type(x, weight, bias)``.
    """
    arrays = [t.data for t in (x, weight, bias) if t is not None]
    if any(a.dtype != x.dtype for a in arrays):
        dtype = np.result_type(*arrays)
        arrays = [a.astype(dtype, copy=False) for a in arrays]
    return arrays[0], arrays[1], (arrays[2] if bias is not None else None)


def _channel_major(data: np.ndarray, reuse: bool) -> np.ndarray:
    """``data`` ``(N, C, ...)`` as the kernel's C-contiguous ``(C, N, ...)``:
    the swapped view when it already is, else one copy (from the arena
    under ``reuse``)."""
    view = data.swapaxes(0, 1)
    if view.flags.c_contiguous:
        return view
    copy = _workspace(view.shape, view.dtype, reuse)
    np.copyto(copy, view)
    return copy


def _accumulate(
    grad: np.ndarray,
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None,
    gx: np.ndarray | None,
    gw: np.ndarray | None,
) -> None:
    """Hand a conv's gradients to its inputs, given the channel-major
    output gradient ``grad`` ``(C_out, N, ...)`` and ``gx``.

    The bias's is ``grad`` summed over every axis but the channel one:
    per item over the positions, then over the items in order — the
    order a C-contiguous ``(N, C_out, L)`` sum over axes 0 and 2 takes,
    so the sum does not depend on the memory layout.
    """
    if bias is not None and bias.requires_grad:
        per_item = grad.reshape(*grad.shape[:2], -1).sum(axis=2)
        Tensor._accum(bias, np.ascontiguousarray(per_item.T).sum(axis=0), own=True)
    if gw is not None:
        Tensor._accum(weight, gw, own=True)
    if gx is not None:
        Tensor._accum(x, gx.swapaxes(0, 1), own=True)


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int | tuple[int, int] = 1,
    padding: int | tuple[int, int] = 0,
) -> Tensor:
    """2-D cross-correlation.

    Parameters
    ----------
    x:
        Input of shape ``(N, C_in, H, W)``.
    weight:
        Kernel of shape ``(C_out, C_in, KH, KW)``.
    bias:
        Optional per-output-channel bias of shape ``(C_out,)``.
    stride, padding:
        Integer or ``(h, w)`` pair.

    Returns
    -------
    Tensor of shape ``(N, C_out, H_out, W_out)``.
    """
    stride = _pair(stride)
    ph, pw = _pair(padding)
    if min(stride) < 1:
        raise ValueError(f"conv2d stride must be >= 1 on each axis, got {stride}")
    if min(ph, pw) < 0:
        raise ValueError(f"conv2d padding must be >= 0 on each axis, got {(ph, pw)}")
    _, c_in, h, w = x.shape
    _, c_in_w, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"input channels {c_in} != weight channels {c_in_w}")

    inference = not is_grad_enabled()
    out_h = (h + 2 * ph - kh) // stride[0] + 1
    out_w = (w + 2 * pw - kw) // stride[1] + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"conv2d output size <= 0 (padded {h + 2 * ph}x{w + 2 * pw}, kernel {kh}x{kw})"
        )
    x_data, w_data, b_data = _promote(x, weight, bias)
    x_data = _channel_major(x_data, inference)
    out_data = conv2d_gemm(
        x_data, w_data, b_data, stride, (ph, pw), out_h, out_w, reuse=inference
    ).swapaxes(0, 1)
    if inference:
        return Tensor._from_array(out_data)

    def backward(out: Tensor) -> None:
        wanted = x.requires_grad, weight.requires_grad
        grad = _channel_major(out.grad, reuse=False)
        grads = conv2d_grads(grad, x_data, w_data, stride, (ph, pw), *wanted)
        _accumulate(grad, x, weight, bias, *grads)

    parents = [x, weight] + ([bias] if bias is not None else [])
    return Tensor._make(out_data, parents, backward)


def conv1d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
    dilation: int = 1,
) -> Tensor:
    """1-D cross-correlation with optional dilation.

    Parameters
    ----------
    x:
        Input of shape ``(N, C_in, L)``.
    weight:
        Kernel of shape ``(C_out, C_in, K)``.
    bias:
        Optional bias ``(C_out,)``.
    dilation:
        Spacing between kernel taps; dilated causal convolutions are the
        temporal mechanism in the Graph WaveNet baseline.
    """
    if stride < 1 or dilation < 1:
        raise ValueError(f"conv1d stride and dilation must be >= 1, got {stride} and {dilation}")
    if padding < 0:
        raise ValueError(f"conv1d padding must be >= 0, got {padding}")
    _, c_in, length = x.shape
    _, c_in_w, k = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"input channels {c_in} != weight channels {c_in_w}")

    inference = not is_grad_enabled()
    out_l = (length + 2 * padding - dilation * (k - 1) - 1) // stride + 1
    if out_l <= 0:
        raise ValueError(f"conv1d output length <= 0 (L={length}, k={k}, dilation={dilation})")
    x_data, w_data, b_data = _promote(x, weight, bias)
    x_data = _channel_major(x_data, inference)
    out_data = conv1d_gemm(
        x_data, w_data, b_data, stride, padding, dilation, out_l, inference
    ).swapaxes(0, 1)
    if inference:
        return Tensor._from_array(out_data)

    def backward(out: Tensor) -> None:
        wanted = x.requires_grad, weight.requires_grad
        grad = _channel_major(out.grad, reuse=False)
        grads = conv1d_grads(grad, x_data, w_data, stride, padding, dilation, *wanted)
        _accumulate(grad, x, weight, bias, *grads)

    parents = [x, weight] + ([bias] if bias is not None else [])
    return Tensor._make(out_data, parents, backward)


def _band(taps: np.ndarray, length: int) -> np.ndarray:
    """The ``(T, T)`` matrix ``A`` of a "same" ``K``-tap kernel, so that
    ``out[b] = A @ x[b]``: ``A[t, s] = V[s - t + K // 2]`` where that tap
    exists, else zero.

    The zeros past either end of the time axis are the "same" padding: a
    tap that reaches past the axis has no entry, and a kernel longer than
    ``T`` simply leaves its outer taps off the band.
    """
    lag = np.arange(length) - np.arange(length)[:, None] + taps.size // 2
    on_band = (lag >= 0) & (lag < taps.size)
    band = np.zeros((length, length), dtype=taps.dtype)
    band[on_band] = taps[lag[on_band]]
    return band


def time_conv(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """Paper Eq. 5's convolution: one shared kernel slid along time.

    A "same" cross-correlation along axis 1 of ``x`` ``(B, T, ..., d)``,
    reading zeros past either end, plus a bias over the last axis; the
    output keeps the input's shape::

        out[:, t] = sum_k V[k] * x[:, t + k - K // 2] + c

    ``kernel`` holds the ``K`` taps of ``V`` in any shape (ST-HSL keeps
    the ``(1, 1, K)`` of a one-channel conv1d weight); ``bias`` is ``c``,
    shaped ``(d,)``.  Each window is one gemm, ``out[b] = A @ x[b]`` over
    its ``(T, M)`` matrix, ``A`` the banded matrix of :func:`_band`; the
    bias is then added through the flat ``(B*T, M)`` view as one tiled
    row, which keeps the add's inner loop ``M`` long rather than ``d``.
    Under ``no_grad`` the output comes from the active arena; the graph
    path runs the same arithmetic into a fresh buffer, so the two agree
    bit for bit.  The backward is ``gx[b] = A.T @ g[b]``; ``V``'s
    gradient is read off the diagonals of ``sum_b g[b] @ x[b].T``, tap
    ``k`` from the one at offset ``k - K // 2``.
    """
    x_data, taps, c = _promote(x, kernel, bias)
    taps = taps.reshape(-1)
    b, t = x_data.shape[:2]
    m = math.prod(x_data.shape[2:])
    band = _band(taps, t)
    inference = not is_grad_enabled()
    out = _workspace(x_data.shape, x_data.dtype, inference)
    np.matmul(band, x_data.reshape(b, t, m), out=out.reshape(b, t, m))
    flat = out.reshape(b * t, m)
    flat += np.tile(c, m // c.size)
    if inference:
        return Tensor._from_array(out)

    def backward(result: Tensor) -> None:
        grad = result.grad
        if bias.requires_grad:
            Tensor._accum(bias, grad.sum(axis=tuple(range(grad.ndim - 1))), own=True)
        g = grad.reshape(b, t, m)
        if kernel.requires_grad:
            lags = np.matmul(g, x_data.reshape(b, t, m).swapaxes(1, 2)).sum(axis=0)
            half = taps.size // 2
            gv = np.array([np.trace(lags, offset=k - half) for k in range(taps.size)], grad.dtype)
            Tensor._accum(kernel, gv.reshape(kernel.shape), own=True)
        if x.requires_grad:
            Tensor._accum(x, np.matmul(band.T, g).reshape(x_data.shape), own=True)

    return Tensor._make(out, [x, kernel, bias], backward)
