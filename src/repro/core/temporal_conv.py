"""Temporal crime dependency modelling (paper Eq 3).

Aggregates cross-time crime patterns with a 1-D convolution along the
time-slot axis, again with residual connection, dropout and LeakyReLU.
Categories share the channel axis, so temporal kernels are type-aware
(`W^(T)_c` in the paper indexes kernels by category).

Activations are channel-major, ``(C*d, B*R, T)`` in memory, the layout
of the conv kernel in :mod:`repro.nn.kernels`: the encoder copies the
spatial encoder's output into it once, and each layer hands its conv
the ``(B*R, C*d, T)`` view, which the kernel reads without a copy.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn import Tensor

__all__ = ["TemporalConvEncoder"]


class _TemporalLayer(nn.Module):
    def __init__(
        self,
        channels: int,
        kernel_size: int,
        dropout: float,
        leaky_slope: float,
        rng: np.random.Generator,
    ):
        super().__init__()
        self.leaky_slope = leaky_slope
        self.conv = nn.Conv1d(channels, channels, kernel_size, rng, padding=kernel_size // 2)
        self.drop = nn.Dropout(dropout, rng)

    def forward(self, x: Tensor) -> Tensor:
        """``x`` is channel-major ``(C*d, B*R, T)`` (batch folded into
        sequences); the conv sees it as ``(B*R, C*d, T)`` sequences, a
        view the conv kernel reads in place.  Returns the same layout."""
        out = self.drop(self.conv(x.swapaxes(0, 1))).swapaxes(0, 1)
        return (out + x).leaky_relu(self.leaky_slope)


class TemporalConvEncoder(nn.Module):
    """Stack of temporal conv layers producing ``H^(T)`` (Eq 3)."""

    def __init__(
        self,
        num_categories: int,
        dim: int,
        kernel_size: int,
        num_layers: int,
        dropout: float,
        leaky_slope: float,
        rng: np.random.Generator,
    ):
        super().__init__()
        self.num_categories = num_categories
        self.dim = dim
        self.layers = nn.ModuleList(
            [
                _TemporalLayer(num_categories * dim, kernel_size, dropout, leaky_slope, rng)
                for _ in range(num_layers)
            ]
        )

    def forward(self, h_spatial: Tensor) -> Tensor:
        """Encode ``(B, R, T, C, d)`` into ``H^(T)`` of the same shape,
        folding the batch into the conv's sequence axis, channel-major:
        ``(C*d, B*R, T)``.  The output is a view over that memory.
        """
        b, r, t, c, d = h_spatial.shape
        sequence = h_spatial.transpose(3, 4, 0, 1, 2).reshape(c * d, b * r, t)
        for layer in self.layers:
            sequence = layer(sequence)
        return sequence.reshape(c, d, b, r, t).transpose(2, 3, 4, 0, 1)
