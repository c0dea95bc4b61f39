"""Type-aware spatial crime pattern encoding (paper Eq 2).

A hierarchical 2-D convolutional encoder over the region grid.  Crime
embeddings of all categories are stacked into the channel axis so the
kernels jointly mix *spatial* context (the kernel window over the grid)
and *type-wise* dependence (full channel mixing across categories).  A
residual connection, dropout and LeakyReLU complete each layer, exactly
as in Eq 2; two layers are stacked by default.

The "w/o C-Conv" ablation (Figure 5) replaces full channel mixing with
per-category convolutions, severing cross-type information flow while
keeping the spatial receptive field identical.

Activations are channel-major, ``(C*d, B*T, I, J)`` in memory, the
layout of the conv kernel in :mod:`repro.nn.kernels`: the encoder reads
:class:`~repro.core.embedding.CrimeEmbedding`'s output with a free
reshape, and each layer hands its conv the ``(B*T, C*d, I, J)`` view,
which the kernel reads without a copy.

The first layer's input is Eq 1's embedding, rank-1 per category:
``E[(c, k)] = X[c] · e[c, k]``.  Given the raw channel-major window ``X``
``(C, B*T, I, J)`` and the type embedding ``e``, that layer convolves
``X`` with the folded weight ``W̃[o, c] = Σ_k W[o, (c, k)] · e[c, k]``
instead: the same ``W ∗ E`` from ``C`` input channels rather than
``C*d``.  It still adds ``E`` as Eq 2's residual.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn import Tensor

__all__ = ["SpatialConvEncoder"]


class _SpatialLayer(nn.Module):
    """One residual spatial convolution layer."""

    def __init__(
        self,
        num_categories: int,
        dim: int,
        kernel_size: int,
        dropout: float,
        leaky_slope: float,
        cross_category: bool,
        rng: np.random.Generator,
    ):
        super().__init__()
        self.num_categories = num_categories
        self.dim = dim
        self.cross_category = cross_category
        self.leaky_slope = leaky_slope
        padding = kernel_size // 2
        channels = num_categories * dim
        if cross_category:
            self.conv = nn.Conv2d(channels, channels, kernel_size, rng, padding=padding)
        else:
            # One independent conv per category: no type mixing.
            self.convs = nn.ModuleList(
                [nn.Conv2d(dim, dim, kernel_size, rng, padding=padding) for _ in range(num_categories)]
            )
        self.drop = nn.Dropout(dropout, rng)

    def forward(
        self, x: Tensor, counts: Tensor | None = None, type_embedding: Tensor | None = None
    ) -> Tensor:
        """``x`` is channel-major ``(C*d, B*T, I, J)`` (batch folded into
        images); the convs see it as ``(B*T, C*d, I, J)`` images, a view
        the conv kernel reads in place.  Returns the same layout.

        Given ``counts``, the channel-major ``(C, B*T, I, J)`` window that
        ``x`` embeds, and its ``(C, d)`` ``type_embedding``, the convs read
        ``counts`` with Eq 1 folded into their weights (module docstring).
        """
        images = (x if counts is None else counts).swapaxes(0, 1)
        if self.cross_category:
            out = _convolve(self.conv, images, type_embedding)
        else:
            width = images.shape[1] // self.num_categories
            parts = []
            for c, conv in enumerate(self.convs):
                vectors = None if type_embedding is None else type_embedding[c : c + 1]
                parts.append(_convolve(conv, images[:, c * width : (c + 1) * width], vectors))
            out = nn.concatenate(parts, axis=1)
        # Eq 2: σ(δ(W ∗ E + b) + E) — dropout inside, residual, LeakyReLU.
        # Dropout draws its mask in image order; the sum and the
        # activation run on contiguous channel-major memory.
        return (self.drop(out).swapaxes(0, 1) + x).leaky_relu(self.leaky_slope)


def _convolve(conv: nn.Conv2d, images: Tensor, type_embedding: Tensor | None) -> Tensor:
    """``conv`` over ``images``; with ``type_embedding`` ``e`` ``(C, d)``,
    over the raw ``(N, C, I, J)`` counts with ``W̃[o, c] = Σ_k W[o, (c, k)]
    · e[c, k]``, formed with Tensor ops so gradients reach ``W`` and ``e``.

    The folded conv calls :func:`repro.nn.conv2d` directly: ``conv``'s own
    ``forward`` describes a ``C*d``-channel conv, which this is not.
    """
    if type_embedding is None:
        return conv(images)
    c_out, _, kh, kw = conv.weight.shape
    c, d = type_embedding.shape
    weight = conv.weight.reshape(c_out, c, d, kh, kw) * type_embedding.reshape(1, c, d, 1, 1)
    return nn.conv2d(images, weight.sum(axis=2), conv.bias, padding=conv.padding)


class SpatialConvEncoder(nn.Module):
    """Stack of :class:`_SpatialLayer` producing ``H^(R)`` (Eq 2)."""

    def __init__(
        self,
        rows: int,
        cols: int,
        num_categories: int,
        dim: int,
        kernel_size: int,
        num_layers: int,
        dropout: float,
        leaky_slope: float,
        cross_category: bool,
        rng: np.random.Generator,
    ):
        super().__init__()
        self.rows = rows
        self.cols = cols
        self.num_categories = num_categories
        self.dim = dim
        self.layers = nn.ModuleList(
            [
                _SpatialLayer(
                    num_categories, dim, kernel_size, dropout, leaky_slope, cross_category, rng
                )
                for _ in range(num_layers)
            ]
        )

    def forward(
        self,
        embeddings: Tensor,
        counts: np.ndarray | None = None,
        type_embedding: Tensor | None = None,
    ) -> Tensor:
        """Encode ``(B, R, T, C, d)`` embeddings into ``H^(R)`` of the same shape.

        The windows share one conv invocation by folding the batch into
        the image axis, channel-major: ``(C*d, B*T, I, J)``.  The output
        is a view over that memory.  ``counts``, the channel-major
        ``(C, B, T, R)`` window the embeddings were made from
        (:meth:`~repro.core.embedding.CrimeEmbedding.counts`), and
        ``type_embedding`` let the first layer fold Eq 1 into its conv.
        """
        b, r, t, c, d = embeddings.shape
        image = embeddings.transpose(3, 4, 0, 2, 1).reshape(c * d, b * t, self.rows, self.cols)
        raw = None if counts is None else Tensor(counts.reshape(c, b * t, self.rows, self.cols))
        for i, layer in enumerate(self.layers):
            image = layer(image, raw, type_embedding) if i == 0 else layer(image)
        return image.reshape(c, d, b, t, r).transpose(2, 4, 3, 0, 1)
