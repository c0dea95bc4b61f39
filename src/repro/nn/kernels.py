"""The convolution kernel: batch-folded im2col contracted in one gemm.

Every :func:`~repro.nn.conv2d` and multi-channel
:func:`~repro.nn.conv1d` call — training and inference, float32 and
float64 — runs the forward kernel for its rank here.  The patch
workspace is laid out ``(C_in, K, N, L)`` so that, read as a
``(C_in*K, N*L)`` matrix, the whole batch contracts in ONE
``(C_out, C_in*K) @ (C_in*K, N*L)`` gemm, followed by a single
transpose to ``(N, C_out, L)``.  At stride 1 the patch fill reads
straight from the *unpadded* input and writes the zero frame in place,
so no padded copy is ever made.  :mod:`repro.nn.ops` back-propagates
through the same folded layout: both gradients are again single gemms.

Workspaces come from the active :class:`~repro.nn.BufferArena` when
``reuse`` is set (the no-grad path); during training the patch matrix
must outlive the forward for the backward, so it is freshly allocated.
Both operands must share one dtype — the gemms write into ``out=``
buffers of that dtype (``ops`` promotes mixed calls first).
"""

from __future__ import annotations

import numpy as np

from .arena import request as _arena_request
from .tensor import _padded

__all__ = ["conv1d_gemm", "conv2d_gemm"]


def _workspace(shape: tuple[int, ...], dtype, reuse: bool) -> np.ndarray:
    """A conv workspace buffer: arena-pooled on the inference fast path."""
    if reuse:
        buffer = _arena_request(shape, dtype)
        if buffer is not None:
            return buffer
    return np.empty(shape, dtype=dtype)


def _pad(x: np.ndarray, pad_width, reuse: bool) -> np.ndarray:
    """Zero-pad ``x`` (arena-pooled on the no-grad path)."""
    return _padded(x, pad_width) if reuse else np.pad(x, pad_width)


def conv2d_gemm(
    x: np.ndarray,
    weight: np.ndarray,
    stride: tuple[int, int],
    padding: tuple[int, int],
    out_h: int,
    out_w: int,
    reuse: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """2-D cross-correlation of ``x`` ``(N, C_in, H, W)`` with ``weight``.

    ``x`` is the raw *unpadded* input; ``out_h``/``out_w`` are the output
    geometry the caller already derived.  Returns ``(out, cols)``: ``out``
    of shape ``(N, C_out, out_h * out_w)`` and the
    ``(C_in, KH*KW, N, out_h, out_w)`` patch workspace the backward
    contracts against.
    """
    n, _, h, w = x.shape
    c_out, c_in, kh, kw = weight.shape
    ph, pw = padding
    sh, sw = stride
    taps = kh * kw
    length = out_h * out_w
    cols = _workspace((c_in, taps, n, out_h, out_w), x.dtype, reuse)
    if stride == (1, 1):
        # Implicit padding: fill straight from the unpadded input and
        # write the zero frame in place — saves the whole padding pass.
        for tap in range(taps):
            i, j = divmod(tap, kw)
            di, dj = i - ph, j - pw
            dst = cols[:, tap]
            r0, r1 = max(0, -di), min(out_h, h - di)
            c0, c1 = max(0, -dj), min(out_w, w - dj)
            if r0 > 0:
                dst[:, :, :r0, :].fill(0.0)
            if r1 < out_h:
                dst[:, :, r1:, :].fill(0.0)
            if c0 > 0:
                dst[:, :, r0:r1, :c0].fill(0.0)
            if c1 < out_w:
                dst[:, :, r0:r1, c1:].fill(0.0)
            dst[:, :, r0:r1, c0:c1] = x[:, :, r0 + di : r1 + di, c0 + dj : c1 + dj].transpose(
                1, 0, 2, 3
            )
    else:
        x_pad = _pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), reuse) if (ph or pw) else x
        for tap in range(taps):
            i, j = divmod(tap, kw)
            cols[:, tap] = x_pad[
                :, :, i : i + sh * out_h : sh, j : j + sw * out_w : sw
            ].transpose(1, 0, 2, 3)
    # One gemm over the whole batch: (C_out, C*K) @ (C*K, N*L).
    out2 = _workspace((c_out, n, length), x.dtype, reuse)
    np.matmul(
        weight.reshape(c_out, c_in * taps),
        cols.reshape(c_in * taps, n * length),
        out=out2.reshape(c_out, n * length),
    )
    out = _workspace((n, c_out, length), x.dtype, reuse)
    np.copyto(out.reshape(n, c_out, out_h, out_w), out2.reshape(c_out, n, out_h, out_w).transpose(1, 0, 2, 3))
    return out, cols


def conv1d_gemm(
    x: np.ndarray,
    weight: np.ndarray,
    stride: int,
    padding: int,
    dilation: int,
    out_l: int,
    reuse: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """1-D (dilated) cross-correlation of ``x`` ``(N, C_in, L)`` with ``weight``.

    Same contract as :func:`conv2d_gemm`: returns ``out`` of shape
    ``(N, C_out, out_l)`` and the ``(C_in, K, N, out_l)`` patch
    workspace.
    """
    n, _, length = x.shape
    c_out, c_in, k = weight.shape
    cols = _workspace((c_in, k, n, out_l), x.dtype, reuse)
    if stride == 1:
        # Implicit padding (dilation-aware): zero the out-of-range ends in
        # place and copy the valid span from the unpadded input.
        for tap in range(k):
            offset = tap * dilation - padding
            dst = cols[:, tap]
            l0, l1 = max(0, -offset), min(out_l, length - offset)
            if l0 > 0:
                dst[:, :, :l0].fill(0.0)
            if l1 < out_l:
                dst[:, :, l1:].fill(0.0)
            dst[:, :, l0:l1] = x[:, :, l0 + offset : l1 + offset].transpose(1, 0, 2)
    else:
        x_pad = _pad(x, ((0, 0), (0, 0), (padding, padding)), reuse) if padding else x
        for tap in range(k):
            start = tap * dilation
            cols[:, tap] = x_pad[:, :, start : start + stride * out_l : stride].transpose(1, 0, 2)
    out2 = _workspace((c_out, n, out_l), x.dtype, reuse)
    np.matmul(
        weight.reshape(c_out, c_in * k),
        cols.reshape(c_in * k, n * out_l),
        out=out2.reshape(c_out, n * out_l),
    )
    out = _workspace((n, c_out, out_l), x.dtype, reuse)
    np.copyto(out, out2.transpose(1, 0, 2))
    return out, cols
