"""DeepCrime baseline (Huang, Zhang, Zheng & Chawla — CIKM 2018).

Attentive hierarchical recurrent network for crime prediction: a GRU
encodes each region's crime sequence (categories as features, plus a
learnable region embedding), and a temporal attention layer aggregates
hidden states with learned weights before the prediction head.

Batched-native: ``forward_batch`` folds a stacked ``(B, R, W, C)`` batch
into the GRU's sample axis (``B*R`` sequences in one unrolled pass), the
attention and head operate on trailing dimensions; ``ForecastModel``
derives the per-sample ``forward`` and the MSE objective from it.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn import Tensor
from ..nn import functional as F
from ..training.interface import ForecastModel

__all__ = ["DeepCrime"]


class DeepCrime(ForecastModel):
    """GRU + temporal attention crime forecaster."""

    def __init__(
        self,
        num_regions: int,
        num_categories: int,
        hidden: int = 16,
        region_dim: int = 8,
        seed: int = 0,
    ):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.num_regions = num_regions
        self.region_dim = region_dim
        self.hidden = hidden
        self.region_embed = nn.Parameter(nn.init.normal((num_regions, region_dim), rng, std=0.1))
        self.gru = nn.GRU(num_categories + region_dim, hidden, rng)
        # Additive attention: score_t = vᵀ tanh(W h_t)
        self.attn_proj = nn.Linear(hidden, hidden, rng)
        self.attn_vector = nn.Parameter(nn.init.xavier_uniform((hidden, 1), rng))
        self.head = nn.Linear(hidden, num_categories, rng)

    def forward_batch(self, windows: np.ndarray) -> Tensor:
        """``(B, R, W, C)`` stacked histories -> ``(B, R, C)`` predictions."""
        windows = np.asarray(windows)
        if windows.ndim != 4:
            raise ValueError(f"expected a (B, R, W, C) batch, got shape {windows.shape}")
        b, r, w, c = windows.shape
        # Tile the region embedding over batch and time; the broadcast
        # multiply keeps gradients flowing back to the embedding (summed
        # over batch and time by unbroadcast, matching B per-sample passes).
        region = self.region_embed.reshape(1, r, 1, self.region_dim)
        region_tiled = (region * Tensor(np.ones((b, 1, w, 1)))).reshape(b * r, w, self.region_dim)
        inputs = nn.concatenate(
            [Tensor(windows.reshape(b * r, w, c)), region_tiled], axis=-1
        )
        states, _ = self.gru(inputs)  # (B*R, W, hidden)
        scores = self.attn_proj(states).tanh() @ self.attn_vector  # (B*R, W, 1)
        weights = F.softmax(scores, axis=1)
        context = (states * weights).sum(axis=1)  # (B*R, hidden)
        return self.head(context).reshape(b, r, c)
