"""Graph WaveNet baseline (Wu et al. — IJCAI 2019).

Combines an *adaptive adjacency matrix* learned from node embeddings
(``softmax(relu(E₁E₂ᵀ))``) with stacked dilated causal gated temporal
convolutions and graph convolutions over both the fixed and adaptive
supports, plus skip connections into the output head.

Batched-native: every layer operates on stacked ``(B, R, ch, T)`` inputs
— the temporal convolutions fold batch and region into their sample
axis, the graph mixing broadcasts the ``(R, R)`` supports over batch and
time — and ``ForecastModel`` derives the per-sample ``forward`` and the
MSE objective from ``forward_batch``.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn import Tensor
from ..nn import functional as F
from ..training.interface import ForecastModel
from .base import GatedTemporalConv
from .dcrnn import random_walk_supports

__all__ = ["GraphWaveNet"]


class _GWNLayer(nn.Module):
    def __init__(self, channels: int, kernel: int, dilation: int, num_supports: int, rng):
        super().__init__()
        self.temporal = GatedTemporalConv(channels, kernel, rng, dilation=dilation)
        self.graph_proj = nn.Linear(channels * (num_supports + 1), channels, rng)
        self.skip_proj = nn.Linear(channels, channels, rng)

    def forward(self, x: Tensor, supports: list[Tensor]) -> tuple[Tensor, Tensor]:
        """``x``: (B, R, ch, T); returns (residual output, skip contribution)."""
        b, r, ch, t = x.shape
        h = self.temporal(x.reshape(b * r, ch, t)).reshape(b, r, ch, t)
        time_major = h.transpose(0, 3, 1, 2)  # (B, T, R, ch)
        terms = [time_major]
        for support in supports:
            terms.append(support @ time_major)  # (R, R) broadcasts over (B, T)
        mixed = self.graph_proj(nn.concatenate(terms, axis=-1)).relu()  # (B, T, R, ch)
        out = mixed.transpose(0, 2, 3, 1) + x
        skip = self.skip_proj(mixed.mean(axis=1))  # (B, R, ch)
        return out, skip


class GraphWaveNet(ForecastModel):
    """Dilated temporal convolutions + adaptive graph convolutions."""

    def __init__(
        self,
        adjacency: np.ndarray,
        num_categories: int,
        hidden: int = 16,
        embed_dim: int = 8,
        num_layers: int = 3,
        kernel: int = 3,
        seed: int = 0,
    ):
        super().__init__()
        rng = np.random.default_rng(seed)
        num_regions = adjacency.shape[0]
        self.fixed_supports = [Tensor(s) for s in random_walk_supports(adjacency)]
        self.source_embed = nn.Parameter(nn.init.normal((num_regions, embed_dim), rng, std=0.1))
        self.target_embed = nn.Parameter(nn.init.normal((num_regions, embed_dim), rng, std=0.1))
        self.input_proj = nn.Linear(num_categories, hidden, rng)
        self.layers = nn.ModuleList(
            [
                _GWNLayer(hidden, kernel, 2 ** i, len(self.fixed_supports) + 1, rng)
                for i in range(num_layers)
            ]
        )
        self.head = nn.Sequential(nn.Linear(hidden, hidden, rng), nn.ReLU(), nn.Linear(hidden, num_categories, rng))

    def adaptive_adjacency(self) -> Tensor:
        """``softmax(relu(E₁ E₂ᵀ))`` — the self-learned dependency graph."""
        scores = (self.source_embed @ self.target_embed.T).relu()
        return F.softmax(scores, axis=-1)

    def forward_batch(self, windows: np.ndarray) -> Tensor:
        """``(B, R, W, C)`` stacked histories -> ``(B, R, C)`` predictions."""
        windows = np.asarray(windows)
        if windows.ndim != 4:
            raise ValueError(f"expected a (B, R, W, C) batch, got shape {windows.shape}")
        supports = self.fixed_supports + [self.adaptive_adjacency()]
        x = self.input_proj(Tensor(windows)).transpose(0, 1, 3, 2)  # (B, R, hidden, W)
        skip_total: Tensor | None = None
        for layer in self.layers:
            x, skip = layer(x, supports)
            skip_total = skip if skip_total is None else skip_total + skip
        return self.head(skip_total.relu())
