"""Convolution primitives for the autograd engine.

Implements 1-D and 2-D cross-correlation (the deep-learning "convolution").
ST-HSL uses 2-D convolutions over the region grid (Eq 2 of the paper) and
1-D convolutions over the time axis (Eq 3); several baselines
(ST-ResNet, STGCN, GWN, STDN, DMSTGCN) also build on these primitives.

The forward pass of :func:`conv2d` and :func:`conv1d` runs the tiled
im2col kernel in :mod:`repro.nn.kernels` on every path: it fills and
contracts the batch-folded patch matrix one tile of images (or
sequences) at a time, cutting the same tiles on both paths, so the
graph-building forward and the no-grad fast path execute the same
arithmetic.  Inference keeps one tile-sized workspace; training keeps
the full patch matrix for the backward.  This module owns everything
around the kernel: argument checks, dtype promotion, autograd graph
construction, the backward gemms over the kernel's folded layout and
the col2im scatter (:func:`_scatter_cols`).

:func:`time_conv` is paper Eq. 5's convolution: one shared kernel slid
along axis 1 of a time-major ``(B, T, ..., d)`` tensor, as per-tap
shifted adds of whole time slices, with its own backward.

Grad mode and the workspace-supplying arena are read through the
thread-local :class:`~repro.nn.context.ExecutionContext` (via
:func:`~repro.nn.tensor.is_grad_enabled` and
:func:`~repro.nn.arena.request`), so convolutions on concurrent threads
never observe each other's ``no_grad``/``use_arena`` scopes.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .kernels import _workspace, conv1d_gemm, conv2d_gemm
from .tensor import Tensor, is_grad_enabled

__all__ = ["conv2d", "conv1d", "time_conv"]


def _pair(value) -> tuple[int, int]:
    if isinstance(value, (tuple, list)):
        return int(value[0]), int(value[1])
    return int(value), int(value)


@lru_cache(maxsize=256)
def _im2col_indices(
    height: int, width: int, kh: int, kw: int, stride: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Precompute gather indices mapping an image to patch columns.

    Cached per geometry: the trainer calls the same convolutions every
    window, so rebuilding these index grids dominated small-conv setup
    cost.  Callers must treat the returned arrays as read-only.
    """
    sh, sw = stride
    out_h = (height - kh) // sh + 1
    out_w = (width - kw) // sw + 1
    i0 = np.repeat(np.arange(kh), kw)
    j0 = np.tile(np.arange(kw), kh)
    i1 = sh * np.repeat(np.arange(out_h), out_w)
    j1 = sw * np.tile(np.arange(out_w), out_h)
    rows = i0.reshape(-1, 1) + i1.reshape(1, -1)  # (kh*kw, out_h*out_w)
    cols = j0.reshape(-1, 1) + j1.reshape(1, -1)
    return rows, cols, out_h, out_w


@lru_cache(maxsize=256)
def _conv1d_indices(length: int, k: int, stride: int, dilation: int) -> tuple[np.ndarray, int]:
    """Gather indices ``(k, out_l)`` for a 1-D sliding window (cached)."""
    span = (k - 1) * dilation + 1
    out_l = (length - span) // stride + 1
    taps = dilation * np.arange(k).reshape(-1, 1)
    starts = stride * np.arange(out_l).reshape(1, -1)
    return taps + starts, out_l


# An ids entry costs 8 bytes per gradient element (as much as the gradient
# itself), so only modest ones are worth retaining across steps; larger
# geometries rebuild the ids each backward.  With the per-entry cap and 4
# slots the cache pins at most ~128 MB worst-case, and in a steady-state
# training loop (one 2-D and one 1-D conv geometry, train + eval batch
# sizes) far less.
_SCATTER_CACHE_MAX_ELEMENTS = 4_000_000


def _build_scatter_ids(nc: int, spatial_size: int, geometry) -> np.ndarray:
    kind = geometry[0]
    if kind == "2d":
        _, hp, wp, kh, kw, stride = geometry
        rows, cols, _, _ = _im2col_indices(hp, wp, kh, kw, stride)
        positions = (rows * wp + cols).ravel()
    else:
        idx, _ = _conv1d_indices(*geometry[1:])
        positions = idx.ravel()
    offsets = np.arange(nc, dtype=np.intp).reshape(-1, 1) * spatial_size
    return (offsets + positions.reshape(1, -1)).ravel()


@lru_cache(maxsize=4)
def _scatter_ids(nc: int, spatial_size: int, geometry) -> np.ndarray:
    """Flattened bincount ids for a (batch*channels, geometry) scatter.

    ``geometry`` is the hashable key identifying the patch layout (the
    ``_scatter_cols`` dispatch tuple).  Cached because the trainer re-runs
    identical convolutions every step.
    """
    return _build_scatter_ids(nc, spatial_size, geometry)


def _scatter_cols_f64(gcols: np.ndarray, geometry, spatial_size: int) -> np.ndarray:
    """float64 scatter-add: one ``np.bincount`` over flattened offset ids
    (an order of magnitude faster than the ``np.add.at`` buffered scatter)."""
    n, c, p = gcols.shape
    nc = n * c
    if nc * p <= _SCATTER_CACHE_MAX_ELEMENTS:
        ids = _scatter_ids(nc, spatial_size, geometry)
    else:
        ids = _build_scatter_ids(nc, spatial_size, geometry)
    flat = np.bincount(ids, weights=gcols.reshape(nc * p), minlength=nc * spatial_size)
    return flat.reshape(n, c, spatial_size)


def _scatter_cols_native(gcols: np.ndarray, geometry, spatial_size: int) -> np.ndarray:
    """Dtype-native scatter-add: one strided ``+=`` per kernel tap.

    The exact mirror of the kernel's per-tap patch fill — each tap's
    slab lands on a strided view of the output, overlaps between patches
    resolve across taps, and no dtype conversion or index array is needed.
    """
    n, c, _ = gcols.shape
    if geometry[0] == "2d":
        _, hp, wp, kh, kw, stride = geometry
        sh, sw = stride
        _, _, out_h, out_w = _im2col_indices(hp, wp, kh, kw, stride)
        taps = gcols.reshape(n, c, kh * kw, out_h, out_w)
        out = np.zeros((n, c, hp, wp), dtype=gcols.dtype)
        for tap in range(kh * kw):
            i, j = divmod(tap, kw)
            out[:, :, i : i + sh * out_h : sh, j : j + sw * out_w : sw] += taps[:, :, tap]
        return out.reshape(n, c, spatial_size)
    _, lp, k, stride, dilation = geometry
    _, out_l = _conv1d_indices(lp, k, stride, dilation)
    taps = gcols.reshape(n, c, k, out_l)
    out = np.zeros((n, c, lp), dtype=gcols.dtype)
    for tap in range(k):
        start = tap * dilation
        out[:, :, start : start + stride * out_l : stride] += taps[:, :, tap]
    return out


def _scatter_cols(gcols: np.ndarray, geometry, spatial_size: int) -> np.ndarray:
    """Accumulate patch-column gradients back onto the (flattened) input.

    ``gcols`` is ``(N, C, P)`` where axis ``P`` enumerates patch elements
    and ``geometry`` identifies which spatial position each one lands on.
    Overlapping patches hit the same position several times, so this is a
    scatter-add.  Two implementations, dispatched on dtype (epoch-level
    A/B on the bench geometry):

    * float64 — ``np.bincount`` over offset ids (~6% faster epochs than
      per-tap adds; bincount accumulates in float64 natively);
    * everything else — per-tap strided adds, which keep the gradient in
      its own dtype end to end.  float32 mode previously paid a float64
      round-trip through bincount (~10% of epoch wall-clock).

    Returns ``(N, C, spatial_size)`` in ``gcols``'s dtype.
    """
    if gcols.dtype == np.float64:
        return _scatter_cols_f64(gcols, geometry, spatial_size)
    return _scatter_cols_native(gcols, geometry, spatial_size)


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


def _gemm_backward(
    grad: np.ndarray,
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None,
    w_data: np.ndarray,
    cols: np.ndarray,
    scatter_gx,
) -> None:
    """Back-propagate a conv output gradient through ``out = w @ cols``.

    ``cols`` is the forward's full ``(C_in, K, N, ...)`` patch matrix,
    which the kernel keeps whole when training.  Folding ``grad`` into
    the same ``(C, N*L)`` layout makes both gradients single gemms; the
    patch gradient goes to ``scatter_gx`` as ``(N, C_in, K*L)``.
    """
    c_in, taps, n = cols.shape[:3]
    c_out = w_data.shape[0]
    grad = grad.reshape(n, c_out, -1)
    length = grad.shape[2]
    if bias is not None and bias.requires_grad:
        Tensor._accum(bias, grad.sum(axis=(0, 2)), own=True)
    grad2 = np.ascontiguousarray(grad.transpose(1, 0, 2)).reshape(c_out, n * length)
    if weight.requires_grad:
        gw = np.matmul(grad2, cols.reshape(c_in * taps, n * length).T)
        Tensor._accum(weight, gw.reshape(weight.data.shape), own=True)
    if x.requires_grad:
        w_mat = w_data.reshape(c_out, c_in * taps)
        gcols = np.matmul(w_mat.T, grad2).reshape(c_in, taps, n, length)
        gcols = np.ascontiguousarray(gcols.transpose(2, 0, 1, 3))
        scatter_gx(gcols.reshape(n, c_in, taps * length))


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
    n, c_in, h, w = x.shape
    c_out, c_in_w, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"input channels {c_in} != weight channels {c_in_w}")

    inference = not is_grad_enabled()
    hp, wp = h + 2 * ph, w + 2 * pw
    _, _, out_h, out_w = _im2col_indices(hp, wp, kh, kw, stride)
    if out_h <= 0 or out_w <= 0:
        raise ValueError(f"conv2d output size <= 0 (padded {hp}x{wp}, kernel {kh}x{kw})")
    x_data, w_data, b_data = _promote(x, weight, bias)
    # The kernel owns padding, tiling and workspace layout; workspaces are
    # arena-pooled on the no-grad path only (during training the saved
    # patch matrix must survive until backward, so it stays fresh).
    out_data, cols = conv2d_gemm(
        x_data, w_data, b_data, stride, (ph, pw), out_h, out_w, reuse=inference
    )
    out_data = out_data.reshape(n, c_out, out_h, out_w)
    if inference:
        return Tensor._from_array(out_data)

    parents = [x, weight] + ([bias] if bias is not None else [])
    geometry = ("2d", hp, wp, kh, kw, stride)

    def scatter_gx(gcols: np.ndarray) -> None:
        gx_pad = _scatter_cols(gcols, geometry, hp * wp).reshape(n, c_in, hp, wp)
        # The un-padded slice is a view of the fresh gx_pad buffer, which
        # no other node references, so it is safe to adopt without copy.
        gx = gx_pad[:, :, ph : ph + h, pw : pw + w] if (ph or pw) else gx_pad
        Tensor._accum(x, gx, own=True)

    def backward(out: Tensor) -> None:
        _gemm_backward(out.grad, x, weight, bias, w_data, cols, scatter_gx)

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
    n, c_in, length = x.shape
    c_out, c_in_w, k = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"input channels {c_in} != weight channels {c_in_w}")

    inference = not is_grad_enabled()
    lp = length + 2 * padding
    span = (k - 1) * dilation + 1
    if lp < span:
        raise ValueError(f"conv1d output length <= 0 (L={length}, k={k}, dilation={dilation})")
    _, out_l = _conv1d_indices(lp, k, stride, dilation)

    x_data, w_data, b_data = _promote(x, weight, bias)
    out_data, cols = conv1d_gemm(
        x_data, w_data, b_data, stride, padding, dilation, out_l, reuse=inference
    )
    if inference:
        return Tensor._from_array(out_data)

    parents = [x, weight] + ([bias] if bias is not None else [])
    geometry = ("1d", lp, k, stride, dilation)

    def scatter_gx(gcols: np.ndarray) -> None:
        gx_pad = _scatter_cols(gcols, geometry, lp)
        gx = gx_pad[:, :, padding : padding + length] if padding else gx_pad
        Tensor._accum(x, gx, own=True)

    def backward(out: Tensor) -> None:
        _gemm_backward(out.grad, x, weight, bias, w_data, cols, scatter_gx)

    return Tensor._make(out_data, parents, backward)


def _time_taps(length: int, k: int):
    """Yield ``(tap, dst, src)`` for each tap of a "same" ``k``-tap kernel
    that reaches into a length-``length`` axis: ``out[dst] += V[tap] * x[src]``.

    The bounds are clamped, so a tap shifted past the whole axis
    (``length <= k // 2``) is skipped rather than sliced with a negative
    bound, which numpy would count from the end.
    """
    half = k // 2
    for tap in range(k):
        shift = tap - half
        lo, hi = max(0, -shift), min(length, length - shift)
        if lo < hi:
            yield tap, slice(lo, hi), slice(lo + shift, hi + shift)


def _shifted_adds(
    out: np.ndarray, data: np.ndarray, taps: np.ndarray, product: np.ndarray, adjoint: bool
) -> None:
    """``out[:, dst] += taps[tap] * data[:, src]`` for every tap, in tap order.

    ``adjoint`` swaps ``dst`` and ``src`` (the input gradient).  Each
    product goes through the flat ``product`` workspace, which holds at
    least ``data.size`` elements.
    """
    for tap, dst, src in _time_taps(out.shape[1], taps.size):
        if adjoint:
            dst, src = src, dst
        window = data[:, src]
        scaled = product[: window.size].reshape(window.shape)
        np.multiply(window, taps[tap], out=scaled)
        out[:, dst] += scaled


def time_conv(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """Paper Eq. 5's convolution: one shared kernel slid along time.

    A "same" cross-correlation along axis 1 of ``x`` ``(B, T, ..., d)``,
    reading zeros past either end, plus a bias over the last axis; the
    output keeps the input's shape::

        out[:, t] = sum_k V[k] * x[:, t + k - K // 2] + c

    ``kernel`` holds the ``K`` taps of ``V`` in any shape (ST-HSL keeps
    the ``(1, 1, K)`` of a one-channel conv1d weight); ``bias`` is ``c``,
    shaped ``(d,)``.  The taps are added to a zeroed output in order,
    then the bias.  Under ``no_grad`` the output and the per-tap product
    come from the active arena; the graph path runs the same arithmetic
    into fresh buffers, so the two agree bit for bit.
    """
    x_data, taps, c = _promote(x, kernel, bias)
    taps = taps.reshape(-1)
    inference = not is_grad_enabled()
    out = _workspace(x_data.shape, x_data.dtype, inference)
    out.fill(0)
    product = _workspace((x_data.size,), x_data.dtype, inference)
    _shifted_adds(out, x_data, taps, product, adjoint=False)
    out += c
    if inference:
        return Tensor._from_array(out)

    def backward(result: Tensor) -> None:
        grad = result.grad
        if bias.requires_grad:
            Tensor._accum(bias, grad.sum(axis=tuple(range(grad.ndim - 1))), own=True)
        if kernel.requires_grad:
            gv = np.zeros(taps.size, dtype=grad.dtype)
            for tap, dst, src in _time_taps(grad.shape[1], taps.size):
                gv[tap] = np.vdot(grad[:, dst], x_data[:, src])
            Tensor._accum(kernel, gv.reshape(kernel.shape), own=True)
        if x.requires_grad:
            gx = np.zeros(grad.shape, dtype=grad.dtype)
            _shifted_adds(gx, grad, taps, np.empty(grad.size, grad.dtype), adjoint=True)
            Tensor._accum(x, gx, own=True)

    return Tensor._make(out, [x, kernel, bias], backward)
