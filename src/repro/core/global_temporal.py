"""Temporal relation encoding for the global branch (paper Eq 5).

Injects temporal context into the hypergraph-refined embeddings with a
stack of 1-D convolutions along the time axis: ``Γ^(T) = σ(δ(V ∗ Γ^(R) + c))``.
The paper's ``V ∈ R^{L'×1}`` is a single-channel kernel applied to every
embedding dimension — i.e. a depthwise convolution with shared weights —
plus a per-dimension bias ``c ∈ R^d``.  Four layers are stacked by
default for long-term temporal context (§IV-A4).

Each layer runs :func:`repro.nn.ops.time_conv` on the hypergraph's
time-major ``(B, T, RC, d)`` layout directly, so the stack makes no
transpose or padded copy.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn import Tensor
from ..nn.ops import time_conv

__all__ = ["GlobalTemporalEncoder"]


class _SharedDepthwiseTemporalLayer(nn.Module):
    """One Eq-5 layer: shared single-channel kernel V, bias c, dropout, σ."""

    def __init__(self, dim: int, kernel_size: int, dropout: float, leaky_slope: float, rng):
        super().__init__()
        self.leaky_slope = leaky_slope
        self.kernel = nn.Parameter(nn.init.xavier_uniform((1, 1, kernel_size), rng))
        self.bias = nn.Parameter(np.zeros(dim))
        self.drop = nn.Dropout(dropout, rng)

    def forward(self, x: Tensor) -> Tensor:
        """``x`` has shape ``(B, T, RC, d)``; the output keeps it."""
        out = time_conv(x, self.kernel, self.bias)
        return self.drop(out).leaky_relu(self.leaky_slope)


class GlobalTemporalEncoder(nn.Module):
    """Stack of shared depthwise temporal convolutions producing ``Γ^(T)``."""

    def __init__(
        self,
        dim: int,
        kernel_size: int,
        num_layers: int,
        dropout: float,
        leaky_slope: float,
        rng: np.random.Generator,
    ):
        super().__init__()
        self.layers = nn.ModuleList(
            [
                _SharedDepthwiseTemporalLayer(dim, kernel_size, dropout, leaky_slope, rng)
                for _ in range(num_layers)
            ]
        )

    def forward(self, gamma: Tensor) -> Tensor:
        """Encode ``(B, T, RC, d)`` hypergraph embeddings into ``Γ^(T)``.

        Every layer convolves the stack along its time axis in one call.
        Output keeps the input layout.
        """
        for layer in self.layers:
            gamma = layer(gamma)
        return gamma
