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

    def forward(self, x: Tensor) -> Tensor:
        """``x`` is channel-major ``(C*d, B*T, I, J)`` (batch folded into
        images); the convs see it as ``(B*T, C*d, I, J)`` images, a view
        the conv kernel reads in place.  Returns the same layout."""
        images = x.swapaxes(0, 1)
        if self.cross_category:
            out = self.conv(images)
        else:
            parts = []
            for c in range(self.num_categories):
                sl = slice(c * self.dim, (c + 1) * self.dim)
                parts.append(self.convs[c](images[:, sl]))
            out = nn.concatenate(parts, axis=1)
        # Eq 2: σ(δ(W ∗ E + b) + E) — dropout inside, residual, LeakyReLU.
        # Dropout draws its mask in image order; the sum and the
        # activation run on contiguous channel-major memory.
        return (self.drop(out).swapaxes(0, 1) + x).leaky_relu(self.leaky_slope)


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

    def forward(self, embeddings: Tensor) -> Tensor:
        """Encode ``(B, R, T, C, d)`` embeddings into ``H^(R)`` of the same shape.

        The windows share one conv invocation by folding the batch into
        the image axis, channel-major: ``(C*d, B*T, I, J)``.  The output
        is a view over that memory.
        """
        b, r, t, c, d = embeddings.shape
        image = embeddings.transpose(3, 4, 0, 2, 1).reshape(c * d, b * t, self.rows, self.cols)
        for layer in self.layers:
            image = layer(image)
        return image.reshape(c, d, b, t, r).transpose(2, 4, 3, 0, 1)
