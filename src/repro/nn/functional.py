"""Functional building blocks: activations, losses, similarity measures.

These are composites of the primitive ops in :mod:`repro.nn.tensor`, so
their gradients come for free from the autograd engine.  The convolution
primitives are re-exported from :mod:`repro.nn.ops` for
``torch.nn.functional`` call-site parity (``F.conv2d(...)``); every
``conv1d`` and ``conv2d`` call runs the tiled im2col kernel in
:mod:`repro.nn.kernels` over channel-major ``(C, N, *spatial)`` memory
(an ``(N, C, ...)`` input that is the ``swapaxes(0, 1)`` of such memory
is read in place, any other is copied once), filling and contracting the
batch-folded patch matrix one :data:`~repro.nn.kernels.TILE_BYTES` tile
of images or sequences at a time, the same way in both grad modes; the
backward walks the same tiles again, so no full patch matrix is ever
kept.
Paper Eq. 5's shared-kernel time convolution is
:func:`repro.nn.ops.time_conv`, not a ``conv1d`` call.
"""

from __future__ import annotations

import numpy as np

from .ops import conv1d, conv2d
from .tensor import Tensor

__all__ = [
    "conv1d",
    "conv2d",
    "softmax",
    "log_softmax",
    "normalize",
    "cosine_similarity",
    "mse_loss",
    "l1_loss",
    "huber_loss",
    "binary_cross_entropy_with_logits",
    "info_nce",
    "dropout",
]


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def normalize(x: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """L2-normalise along ``axis`` (used for cosine similarity in Eq 8)."""
    norm = (x * x).sum(axis=axis, keepdims=True).sqrt()
    return x / (norm + eps)


def cosine_similarity(a: Tensor, b: Tensor, axis: int = -1) -> Tensor:
    """Cosine similarity of paired vectors along ``axis``."""
    return (normalize(a, axis=axis) * normalize(b, axis=axis)).sum(axis=axis)


def mse_loss(pred: Tensor, target: Tensor | np.ndarray, reduction: str = "mean") -> Tensor:
    """Squared-error loss; ``reduction='sum'`` matches the paper's Eq 10."""
    target = target if isinstance(target, Tensor) else Tensor(target)
    diff = pred - target
    sq = diff * diff
    if reduction == "mean":
        return sq.mean()
    if reduction == "sum":
        return sq.sum()
    return sq


def l1_loss(pred: Tensor, target: Tensor | np.ndarray, reduction: str = "mean") -> Tensor:
    target = target if isinstance(target, Tensor) else Tensor(target)
    err = (pred - target).abs()
    if reduction == "mean":
        return err.mean()
    if reduction == "sum":
        return err.sum()
    return err


def huber_loss(pred: Tensor, target: Tensor | np.ndarray, delta: float = 1.0) -> Tensor:
    """Huber loss, used by several traffic baselines for robustness."""
    target = target if isinstance(target, Tensor) else Tensor(target)
    diff = pred - target
    abs_diff = diff.abs()
    quadratic = abs_diff.clip(0.0, delta)
    linear = abs_diff - quadratic
    return (quadratic * quadratic * 0.5 + linear * delta).mean()


def binary_cross_entropy_with_logits(logits: Tensor, target: np.ndarray) -> Tensor:
    """BCE on raw logits, the objective of the hypergraph infomax (Eq 7).

    Uses the stable form ``max(z,0) - z*y + log(1 + exp(-|z|))``.
    """
    target_t = Tensor(np.asarray(target, dtype=logits.data.dtype))
    positive = logits.relu()
    return (positive - logits * target_t + ((-logits.abs()).exp() + 1.0).log()).mean()


def info_nce(anchor: Tensor, positive: Tensor, temperature: float = 0.5) -> Tensor:
    """InfoNCE over row-aligned batches (Eq 8 of the paper).

    ``anchor`` and ``positive`` are ``(..., N, d)``; row ``i`` of each is a
    positive pair, and every other row of ``positive`` provides the
    negatives for anchor ``i``.  Any leading axes are vectorized in a
    single batched matmul — ST-HSL evaluates one InfoNCE term per
    (window, category) pair, so the whole contrastive loss is one call.
    Returns the mean contrastive loss over all leading axes and ``N``.
    """
    a = normalize(anchor, axis=-1)
    p = normalize(positive, axis=-1)
    logits = (a @ p.swapaxes(-1, -2)) * (1.0 / temperature)
    log_probs = log_softmax(logits, axis=-1)
    n = anchor.shape[-2]
    # Extract the positive-pair diagonal with an eye mask: stays a single
    # dense reduction, and broadcasts over any leading batch axes.
    eye = np.eye(n, dtype=log_probs.data.dtype)
    diag = (log_probs * eye).sum(axis=-1)
    return -diag.mean()


def dropout(x: Tensor, rate: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: identity at eval time, scaled mask when training.

    The mask is drawn in ``x``'s index order, so which elements drop does
    not depend on how ``x`` is laid out in memory, and stored in ``x``'s
    memory layout, so the product keeps that layout (a channel-major
    view stays channel-major).
    """
    if not training or rate <= 0.0:
        return x
    keep = 1.0 - rate
    mask = np.empty_like(x.data)
    np.copyto(mask, rng.random(x.shape) < keep)
    mask /= keep
    return x * Tensor(mask)
