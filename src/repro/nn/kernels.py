"""The convolution kernel: batch-folded im2col, contracted one tile at a time.

Every :func:`~repro.nn.conv2d` and :func:`~repro.nn.conv1d` call —
training and inference, float32 and float64 — runs the forward kernel
for its rank here.  The folded batch
axis ``N`` (images for 2-D, sequences for 1-D) is cut into tiles of as
many items as fit one :data:`TILE_BYTES` patch-matrix budget: at least
one item, and the whole batch when it fits.  For each tile the kernel

1. fills the tile's patch columns, laid out ``(C_in, K, n, L)`` so that,
   read as a ``(C_in*K, n*L)`` matrix, the tile contracts in one
   ``(C_out, C_in*K) @ (C_in*K, n*L)`` gemm;
2. runs that gemm;
3. adds the bias and transposes the product into the tile's
   ``(n, C_out, L)`` block of the output while it is still in cache.

At stride 1 the fill reads straight from the *unpadded* input and writes
the zero frame in place, so no padded copy is made; strided calls copy
from a zero-padded copy of the tile.

On the no-grad path (``reuse`` set) the tile workspaces come from the
active :class:`~repro.nn.BufferArena` and every tile reuses them, so
neither a full patch matrix nor a full ``(C_out, N*L)`` product is ever
pooled.  During training :mod:`repro.nn.ops` back-propagates through the
whole patch matrix (both gradients are single gemms over the folded
layout), so the kernel fills a fresh full ``(C_in, K, N, L)`` matrix —
tile by tile, with the same tile boundaries and gemm shapes as
inference.  BLAS picks its blocking by gemm shape, so a tiled product is
not in general bitwise-equal to an untiled one; cutting the same tiles
on both paths is what keeps predict bitwise-equal to forward.

All operands, the bias included, must share one dtype — the gemms write
into ``out=`` buffers of that dtype (``ops`` promotes mixed calls first).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .arena import request as _arena_request
from .tensor import _padded

__all__ = ["TILE_BYTES", "conv1d_gemm", "conv2d_gemm"]

# Patch-matrix bytes per tile.  Swept over 1, 2, 4 and 8 MiB on the two
# convs of a 16x16, 32-window float32 forecast chunk (2 vCPUs): 4 MiB,
# i.e. 14 images or 780 sequences per tile there, ran the spatial conv
# fastest and tied on the temporal one, both at about 0.55-0.7x of the
# untiled kernel's time per call.
TILE_BYTES = 4 << 20


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


def _contract(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    out_shape: tuple[int, ...],
    fill: Callable[[np.ndarray, np.ndarray], None],
    reuse: bool,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Run the tile loop shared by both ranks.

    ``out_shape`` is one item's output geometry and ``fill(cols, x_tile)``
    writes the patches of ``x_tile`` into ``cols``, shaped
    ``(C_in, K, n, *out_shape)``.  Returns ``(out, cols)``: ``out`` of
    shape ``(N, C_out, L)`` and, when training, the full patch matrix the
    backward contracts against (``None`` on the no-grad path).
    """
    n, c_in = x.shape[:2]
    c_out = weight.shape[0]
    taps = math.prod(weight.shape[2:])
    length = math.prod(out_shape)
    rows = c_in * taps
    tile = max(1, min(n, TILE_BYTES // (rows * length * x.itemsize)))
    w_mat = weight.reshape(c_out, rows)
    if reuse:
        cols = None
        workspace = _workspace((rows * tile * length,), x.dtype, reuse)
    else:
        cols = np.empty((c_in, taps, n, *out_shape), dtype=x.dtype)
    staging = _workspace((c_out * tile * length,), x.dtype, reuse)
    out = _workspace((n, c_out, length), x.dtype, reuse)
    for start in range(0, n, tile):
        stop = min(start + tile, n)
        size = (stop - start) * length
        if cols is None:
            block = workspace[: rows * size].reshape(c_in, taps, stop - start, *out_shape)
        else:
            block = cols[:, :, start:stop]
        fill(block, x[start:stop])
        product = staging[: c_out * size].reshape(c_out, stop - start, length)
        np.matmul(w_mat, block.reshape(rows, size), out=product.reshape(c_out, size))
        if bias is not None:
            # On the contiguous product each channel's bias spans n*L
            # elements: one long vector run, where adding it during the
            # transposed copy would run L at a time.
            product += bias[:, None, None]
        np.copyto(out[start:stop], product.transpose(1, 0, 2))
    return out, cols


def _fill_cols2d(
    cols: np.ndarray,
    x: np.ndarray,
    kw: int,
    stride: tuple[int, int],
    padding: tuple[int, int],
    reuse: bool,
) -> None:
    """Write the patches of ``x`` ``(n, C_in, H, W)`` into ``cols``
    ``(C_in, KH*KW, n, out_h, out_w)``."""
    _, taps, _, out_h, out_w = cols.shape
    _, _, h, w = x.shape
    ph, pw = padding
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
        return
    sh, sw = stride
    x_pad = _pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), reuse) if (ph or pw) else x
    for tap in range(taps):
        i, j = divmod(tap, kw)
        cols[:, tap] = x_pad[:, :, i : i + sh * out_h : sh, j : j + sw * out_w : sw].transpose(
            1, 0, 2, 3
        )


def _fill_cols1d(
    cols: np.ndarray, x: np.ndarray, stride: int, padding: int, dilation: int, reuse: bool
) -> None:
    """Write the (dilated) patches of ``x`` ``(n, C_in, L)`` into ``cols``
    ``(C_in, K, n, out_l)``."""
    _, k, _, out_l = cols.shape
    length = x.shape[2]
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
        return
    x_pad = _pad(x, ((0, 0), (0, 0), (padding, padding)), reuse) if padding else x
    for tap in range(k):
        start = tap * dilation
        cols[:, tap] = x_pad[:, :, start : start + stride * out_l : stride].transpose(1, 0, 2)


def conv2d_gemm(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    stride: tuple[int, int],
    padding: tuple[int, int],
    out_h: int,
    out_w: int,
    reuse: bool,
) -> tuple[np.ndarray, np.ndarray | None]:
    """2-D cross-correlation of ``x`` ``(N, C_in, H, W)`` with ``weight``.

    ``x`` is the raw *unpadded* input; ``bias`` is ``(C_out,)`` or None;
    ``out_h``/``out_w`` are the output geometry the caller already
    derived.  Returns ``(out, cols)``: ``out`` of shape
    ``(N, C_out, out_h * out_w)`` and, when training (``reuse`` unset),
    the ``(C_in, KH*KW, N, out_h, out_w)`` patch matrix the backward
    contracts against; ``cols`` is None on the no-grad path.
    """
    kw = weight.shape[3]

    def fill(cols, x_tile):
        _fill_cols2d(cols, x_tile, kw, stride, padding, reuse)

    return _contract(x, weight, bias, (out_h, out_w), fill, reuse)


def conv1d_gemm(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    stride: int,
    padding: int,
    dilation: int,
    out_l: int,
    reuse: bool,
) -> tuple[np.ndarray, np.ndarray | None]:
    """1-D (dilated) cross-correlation of ``x`` ``(N, C_in, L)`` with ``weight``.

    Same contract as :func:`conv2d_gemm`: returns ``out`` of shape
    ``(N, C_out, out_l)`` and, when training, the ``(C_in, K, N, out_l)``
    patch matrix.
    """

    def fill(cols, x_tile):
        _fill_cols1d(cols, x_tile, stride, padding, dilation, reuse)

    return _contract(x, weight, bias, (out_l,), fill, reuse)
