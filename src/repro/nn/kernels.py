"""The convolution kernel: batch-folded im2col over channel-major memory,
walked one tile at a time.

Every :func:`~repro.nn.conv2d` and :func:`~repro.nn.conv1d` call —
training and inference, float32 and float64 — runs the forward kernel
for its rank here, and training runs the backward here too.  The kernel
works in one layout, *channel-major*: C-contiguous ``(C, N, *spatial)``
memory, the channel axis outermost and the folded batch axis ``N``
(images for 2-D, sequences for 1-D) next.  Read as a ``(C, N*L)`` matrix
that is the layout the tile gemm writes, so the output needs no
transpose, and a tile of items is a column slab ``[:, start*L:stop*L]``
of it.  The ops in :mod:`repro.nn.ops` hand the kernel their ``(N, C,
*spatial)`` operands swapped to it, copying only an input that is not
already channel-major.

``N`` is cut into tiles of as many items as fit one :data:`TILE_BYTES`
patch-matrix budget: at least one item, and the whole batch when it
fits.  For each tile the forward

1. fills the tile's patch columns, laid out ``(C_in, K, n, L)`` so that,
   read as a ``(C_in*K, n*L)`` matrix, the tile contracts in one
   ``(C_out, C_in*K) @ (C_in*K, n*L)`` gemm;
2. runs that gemm straight into the tile's slab of the output;
3. adds the bias to that slab while it is still in cache.

The forward is one code path in both grad modes and keeps nothing but
its output: ``reuse`` only decides whether the tile workspace and the
output come from the active :class:`~repro.nn.BufferArena`.  The
backward walks the same tiles again, reading each tile's output
gradient slab in place.  For each tile it

1. refills the tile's patches and adds ``g @ patches.T`` to ``gw``;
2. writes ``w.T @ g`` into the same patch workspace;
3. adds that onto the tile's slice of ``gx``, tap by tap — the exact
   adjoint of the fill.

So no full patch matrix is ever held, and ``gx`` adds each input
position's tap contributions onto zero in tap order whatever the dtype.

Each rank has one tap geometry (:func:`_taps2d`, :func:`_taps1d`): for
every tap, the clamped range of output positions that read the input and
the input slice they read, for any stride, padding and dilation.  The
fill copies inside that range and zeroes the frame of output positions
outside it.  The forward zeroes the frames only when a tile's workspace
layout is new — once per tile size per call, since its copies never
write them; the backward zeroes them on every tile, since ``w.T @ g``
overwrites them.  The scatter adds inside the range.  Neither makes a
padded copy.

BLAS picks its blocking by gemm shape, so a tiled product is not in
general bitwise-equal to an untiled one; cutting the same tiles on every
path is what keeps predict bitwise-equal to forward.  All operands, the
bias included, must share one dtype — the gemms write into ``out=``
buffers of that dtype (``ops`` promotes mixed calls first).
"""

from __future__ import annotations

import math

import numpy as np

from .arena import request as _arena_request

__all__ = ["TILE_BYTES", "conv1d_gemm", "conv1d_grads", "conv2d_gemm", "conv2d_grads"]

# Patch-matrix bytes per tile.  Swept over 1, 2, 4 and 8 MiB on the two
# convs of a 16x16, 32-window float32 forecast chunk (2 vCPUs): 4 MiB,
# i.e. 14 images or 780 sequences per tile there, ran the spatial conv
# fastest and tied on the temporal one, both at about 0.55-0.7x of the
# untiled kernel's time per call.
TILE_BYTES = 4 << 20

# One tap's geometry: per spatial axis, the output positions that read
# the input (``dst``) and the input positions they read (``src``).
Tap = tuple[tuple[slice, ...], tuple[slice, ...]]
# The two leading axes of an input or a tap's frame, taken whole.
_LEAD = (slice(None), slice(None))


def _workspace(shape: tuple[int, ...], dtype, reuse: bool) -> np.ndarray:
    """A conv workspace buffer: arena-pooled on the inference fast path."""
    if reuse:
        buffer = _arena_request(shape, dtype)
        if buffer is not None:
            return buffer
    return np.empty(shape, dtype=dtype)


def _span(size: int, out: int, offset: int, stride: int) -> tuple[slice, slice]:
    """``(dst, src)`` along one axis: output position ``o`` reads input
    position ``o * stride + offset``, and those inside ``[0, size)`` are
    ``dst`` and read ``src``.

    ``dst`` is clamped to ``0 <= start <= stop <= out``, so a tap that
    lies wholly in the padding gets an empty span (and an empty ``src``)
    rather than a negative bound, which numpy would count from the end.
    """
    lo = min(out, max(0, -(offset // stride)))
    hi = max(lo, min(out, (size - 1 - offset) // stride + 1))
    first = lo * stride + offset
    return slice(lo, hi), slice(first, first + (hi - lo) * stride, stride)


def _taps2d(
    in_shape: tuple[int, int],
    out_shape: tuple[int, int],
    kernel: tuple[int, int],
    stride: tuple[int, int],
    padding: tuple[int, int],
) -> list[Tap]:
    """The tap geometry of a 2-D kernel, taps in row-major order."""
    (h, w), (out_h, out_w), (kh, kw) = in_shape, out_shape, kernel
    rows = [_span(h, out_h, i - padding[0], stride[0]) for i in range(kh)]
    cols = [_span(w, out_w, j - padding[1], stride[1]) for j in range(kw)]
    return [((r[0], c[0]), (r[1], c[1])) for r in rows for c in cols]


def _taps1d(
    length: int, out_l: int, k: int, stride: int, padding: int, dilation: int
) -> list[Tap]:
    """The tap geometry of a (dilated) 1-D kernel."""
    spans = [_span(length, out_l, tap * dilation - padding, stride) for tap in range(k)]
    return [((dst,), (src,)) for dst, src in spans]


def _fill(cols: np.ndarray, x: np.ndarray, taps: list[Tap], zero: bool) -> None:
    """Write the patches of ``x`` ``(C_in, n, *in)`` into ``cols``
    ``(C_in, K, n, *out)``: per tap, copy the input its span reads, and
    with ``zero`` set first zero the frame of output positions outside
    the span."""
    for tap, (dst, src) in enumerate(taps):
        frame = cols[:, tap]
        if zero:
            inner = _LEAD
            for span, size in zip(dst, frame.shape[2:]):
                if span.start > 0:
                    frame[inner + (slice(0, span.start),)].fill(0.0)
                if span.stop < size:
                    frame[inner + (slice(span.stop, None),)].fill(0.0)
                inner += (span,)
        frame[_LEAD + dst] = x[_LEAD + src]


def _scatter(gx: np.ndarray, gcols: np.ndarray, taps: list[Tap]) -> None:
    """Add the patch gradient ``gcols`` ``(C_in, K, n, *out)`` onto ``gx``
    ``(C_in, n, *in)``, tap by tap: the adjoint of :func:`_fill`."""
    for tap, (dst, src) in enumerate(taps):
        gx[_LEAD + src] += gcols[(slice(None), tap, slice(None)) + dst]


def _tile(n: int, rows: int, length: int, itemsize: int) -> int:
    """Items per tile: as many as fit one :data:`TILE_BYTES` patch matrix."""
    return max(1, min(n, TILE_BYTES // (rows * length * itemsize)))


def _forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    out_shape: tuple[int, ...],
    taps: list[Tap],
    reuse: bool,
) -> np.ndarray:
    """Run the forward tile loop shared by both ranks on channel-major
    ``x`` ``(C_in, N, *in)``; returns ``(C_out, N, *out)``."""
    c_in, n = x.shape[:2]
    c_out = weight.shape[0]
    length = math.prod(out_shape)
    rows = c_in * len(taps)
    tile = _tile(n, rows, length, x.itemsize)
    w_mat = weight.reshape(c_out, rows)
    patches = _workspace((rows * tile * length,), x.dtype, reuse)
    out = _workspace((c_out, n * length), x.dtype, reuse)
    zeroed = 0
    for start in range(0, n, tile):
        stop = min(start + tile, n)
        block = patches[: rows * (stop - start) * length].reshape(
            c_in, len(taps), stop - start, *out_shape
        )
        _fill(block, x[:, start:stop], taps, zero=stop - start != zeroed)
        zeroed = stop - start
        # The tile's slab of the output: row stride N*L, which BLAS takes
        # as its leading dimension, so the gemm writes it in place.
        product = out[:, start * length : stop * length]
        np.matmul(w_mat, block.reshape(rows, -1), out=product)
        if bias is not None:
            product += bias[:, None]
    return out.reshape(c_out, n, *out_shape)


def _backward(
    grad: np.ndarray,
    x: np.ndarray,
    weight: np.ndarray,
    out_shape: tuple[int, ...],
    taps: list[Tap],
    need_gx: bool,
    need_gw: bool,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Walk the forward's tiles again over channel-major ``grad``
    ``(C_out, N, *out)`` and ``x``; returns channel-major ``(gx, gw)``,
    each None unless asked for."""
    c_in, n = x.shape[:2]
    c_out = weight.shape[0]
    length = math.prod(out_shape)
    rows = c_in * len(taps)
    tile = _tile(n, rows, length, x.itemsize)
    w_mat = weight.reshape(c_out, rows)
    grad = grad.reshape(c_out, n * length)
    patches = np.empty(rows * tile * length, dtype=x.dtype)
    gx = np.zeros(x.shape, dtype=x.dtype) if need_gx else None
    gw = np.zeros((c_out, rows), dtype=x.dtype) if need_gw else None
    for start in range(0, n, tile):
        stop = min(start + tile, n)
        size = (stop - start) * length
        block = patches[: rows * size].reshape(c_in, len(taps), stop - start, *out_shape)
        g = grad[:, start * length : stop * length]
        if gw is not None:
            # The previous tile's w.T @ g overwrote the frames.
            _fill(block, x[:, start:stop], taps, zero=True)
            gw += g @ block.reshape(rows, size).T
        if gx is not None:
            np.matmul(w_mat.T, g, out=block.reshape(rows, size))
            _scatter(gx[:, start:stop], block, taps)
    return gx, (gw.reshape(weight.shape) if need_gw else None)


def conv2d_gemm(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    stride: tuple[int, int],
    padding: tuple[int, int],
    out_h: int,
    out_w: int,
    reuse: bool,
) -> np.ndarray:
    """2-D cross-correlation of channel-major ``x`` ``(C_in, N, H, W)``
    with ``weight`` ``(C_out, C_in, KH, KW)``.

    ``x`` is the raw *unpadded* input; ``bias`` is ``(C_out,)`` or None;
    ``out_h``/``out_w`` are the output geometry the caller already
    derived.  Returns the channel-major output ``(C_out, N, out_h,
    out_w)``; with ``reuse`` set, it and the tile workspace come from the
    arena.
    """
    out_shape = (out_h, out_w)
    taps = _taps2d(x.shape[2:], out_shape, weight.shape[2:], stride, padding)
    return _forward(x, weight, bias, out_shape, taps, reuse)


def conv2d_grads(
    grad: np.ndarray,
    x: np.ndarray,
    weight: np.ndarray,
    stride: tuple[int, int],
    padding: tuple[int, int],
    need_gx: bool,
    need_gw: bool,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Input and weight gradients of :func:`conv2d_gemm`, given the
    channel-major output gradient ``grad`` ``(C_out, N, out_h, out_w)``;
    ``gx`` is channel-major too, and each is None unless asked for."""
    out_shape = grad.shape[2:]
    taps = _taps2d(x.shape[2:], out_shape, weight.shape[2:], stride, padding)
    return _backward(grad, x, weight, out_shape, taps, need_gx, need_gw)


def conv1d_gemm(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    stride: int,
    padding: int,
    dilation: int,
    out_l: int,
    reuse: bool,
) -> np.ndarray:
    """1-D (dilated) cross-correlation of channel-major ``x`` ``(C_in, N,
    L)`` with ``weight`` ``(C_out, C_in, K)``.

    Same contract as :func:`conv2d_gemm`: returns the channel-major
    ``(C_out, N, out_l)`` output.
    """
    taps = _taps1d(x.shape[2], out_l, weight.shape[2], stride, padding, dilation)
    return _forward(x, weight, bias, (out_l,), taps, reuse)


def conv1d_grads(
    grad: np.ndarray,
    x: np.ndarray,
    weight: np.ndarray,
    stride: int,
    padding: int,
    dilation: int,
    need_gx: bool,
    need_gw: bool,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Input and weight gradients of :func:`conv1d_gemm`, given the
    channel-major output gradient ``grad`` ``(C_out, N, out_l)``; each is
    None unless asked for."""
    out_l = grad.shape[2]
    taps = _taps1d(x.shape[2], out_l, weight.shape[2], stride, padding, dilation)
    return _backward(grad, x, weight, (out_l,), taps, need_gx, need_gw)
