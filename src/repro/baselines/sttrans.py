"""STtrans baseline (Wu, Huang, Zhang & Chawla — WWW 2020).

Hierarchically structured Transformer for sparse spatial event
forecasting: stacked layers of self-attention applied along the spatial
axis (regions attend to regions) and the temporal axis (days attend to
days), with layer normalisation and feed-forward sublayers.

Batched-native: ``forward_batch`` folds a stacked ``(B, R, W, C)`` batch
into the attention batch axis — temporal layers see ``(B*R, W, dim)``
sequences, spatial layers ``(B*W, R, dim)`` — so one vectorized pass
replaces B per-sample forwards; ``ForecastModel`` derives the
per-sample ``forward`` and the MSE objective from it.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn import Tensor
from ..training.interface import ForecastModel

__all__ = ["STtrans"]


class _TransformerLayer(nn.Module):
    def __init__(self, dim: int, heads: int, rng):
        super().__init__()
        self.attn = nn.MultiHeadAttention(dim, heads, rng)
        self.norm_a = nn.LayerNorm(dim)
        self.ff = nn.Sequential(nn.Linear(dim, 2 * dim, rng), nn.ReLU(), nn.Linear(2 * dim, dim, rng))
        self.norm_b = nn.LayerNorm(dim)

    def forward(self, x: Tensor) -> Tensor:
        h = self.norm_a(x + self.attn(x))
        return self.norm_b(h + self.ff(h))


class STtrans(ForecastModel):
    """Two stacked spatial-temporal Transformer encoder layers."""

    def __init__(
        self,
        num_regions: int,
        num_categories: int,
        window: int,
        dim: int = 16,
        heads: int = 2,
        seed: int = 0,
    ):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.dim = dim
        self.input_proj = nn.Linear(num_categories, dim, rng)
        self.time_pos = nn.Parameter(nn.init.normal((window, dim), rng, std=0.1))
        self.region_pos = nn.Parameter(nn.init.normal((num_regions, dim), rng, std=0.1))
        self.spatial_layer = _TransformerLayer(dim, heads, rng)
        self.temporal_layer = _TransformerLayer(dim, heads, rng)
        self.spatial_layer2 = _TransformerLayer(dim, heads, rng)
        self.temporal_layer2 = _TransformerLayer(dim, heads, rng)
        self.head = nn.Linear(dim, num_categories, rng)

    def forward_batch(self, windows: np.ndarray) -> Tensor:
        """``(B, R, W, C)`` stacked histories -> ``(B, R, C)`` predictions.

        Attention layers take ``(N, T, dim)`` inputs, so the batch folds
        into the attention batch axis: temporal layers run on ``(B*R, W,
        dim)``, spatial layers on ``(B*W, R, dim)``.  Each sample's rows
        never mix (attention is independent along N), so the batched pass
        computes exactly B per-sample forwards.
        """
        windows = np.asarray(windows)
        if windows.ndim != 4:
            raise ValueError(f"expected a (B, R, W, C) batch, got shape {windows.shape}")
        b, r, w, _ = windows.shape
        h = self.input_proj(Tensor(windows))  # (B, R, W, dim)
        h = (
            h
            + self.time_pos.reshape(1, 1, w, self.dim)
            + self.region_pos.reshape(1, r, 1, self.dim)
        )
        # Layer stack 1: temporal attention (fold B*R over days), then
        # spatial attention (fold B*W over regions).
        h = self.temporal_layer(h.reshape(b * r, w, self.dim))
        h = h.reshape(b, r, w, self.dim).transpose(0, 2, 1, 3)
        h = self.spatial_layer(h.reshape(b * w, r, self.dim))
        h = h.reshape(b, w, r, self.dim).transpose(0, 2, 1, 3)
        # Layer stack 2.
        h = self.temporal_layer2(h.reshape(b * r, w, self.dim))
        h = h.reshape(b, r, w, self.dim).transpose(0, 2, 1, 3)
        h = self.spatial_layer2(h.reshape(b * w, r, self.dim))
        h = h.reshape(b, w, r, self.dim).transpose(0, 2, 1, 3)  # (B, R, W, dim)
        return self.head(h.mean(axis=2))
