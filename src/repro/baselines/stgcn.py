"""STGCN baseline (Yu, Yin & Zhu — IJCAI 2018).

Spatio-Temporal Graph Convolutional Network: "sandwich" ST-Conv blocks
— gated temporal convolution, spectral-style graph convolution over the
region graph, then another gated temporal convolution — followed by an
output layer pooling the remaining time steps.  Kernel size 3 as in the
paper's comparison setup.

All encoders are batched-native: ``forward_batch`` runs a stacked
``(B, R, W, C)`` batch in one vectorized pass (the temporal convolutions
fold batch and region into their sample axis; the graph convolution
broadcasts over batch and time); ``ForecastModel`` derives the
per-sample ``forward`` and the MSE objective from it.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn import Tensor
from ..training.interface import ForecastModel
from .base import GatedTemporalConv, GraphConv

__all__ = ["STGCN"]


class _STConvBlock(nn.Module):
    """Temporal gate → graph conv → temporal gate, over ``(B, R, ch, T)``."""

    def __init__(self, channels: int, support: np.ndarray, kernel: int, rng):
        super().__init__()
        self.temporal_a = GatedTemporalConv(channels, kernel, rng)
        self.graph = GraphConv(channels, channels, rng, support=support)
        self.temporal_b = GatedTemporalConv(channels, kernel, rng)

    def forward(self, x: Tensor) -> Tensor:
        """``x``: (B, R, channels, T) -> same shape."""
        b, r, ch, t = x.shape
        h = self.temporal_a(x.reshape(b * r, ch, t)).reshape(b, r, ch, t)
        # Graph conv mixes regions at each (batch, time) step:
        # (B, R, ch, T) -> (B, T, R, ch), support (R, R) broadcasts.
        h = self.graph(h.transpose(0, 3, 1, 2)).relu().transpose(0, 2, 3, 1)
        return self.temporal_b(h.reshape(b * r, ch, t)).reshape(b, r, ch, t)


class STGCN(ForecastModel):
    """Stacked ST-Conv blocks with a linear readout."""

    def __init__(
        self,
        adjacency_normalized: np.ndarray,
        num_categories: int,
        window: int,
        hidden: int = 16,
        num_blocks: int = 2,
        kernel: int = 3,
        seed: int = 0,
    ):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.hidden = hidden
        self.input_proj = nn.Linear(num_categories, hidden, rng)
        self.blocks = nn.ModuleList(
            [_STConvBlock(hidden, adjacency_normalized, kernel, rng) for _ in range(num_blocks)]
        )
        self.head = nn.Linear(hidden, num_categories, rng)

    def forward_batch(self, windows: np.ndarray) -> Tensor:
        """``(B, R, W, C)`` stacked histories -> ``(B, R, C)`` predictions."""
        windows = np.asarray(windows)
        if windows.ndim != 4:
            raise ValueError(f"expected a (B, R, W, C) batch, got shape {windows.shape}")
        # Project categories to hidden channels, then move time innermost.
        x = self.input_proj(Tensor(windows)).transpose(0, 1, 3, 2)  # (B, R, h, W)
        for block in self.blocks:
            x = block(x)
        pooled = x.mean(axis=3)  # (B, R, hidden)
        return self.head(pooled)
