"""DCRNN baseline (Li, Yu, Shahabi & Liu — ICLR 2018).

Diffusion Convolutional Recurrent Neural Network: GRU gates whose linear
maps are replaced by K-hop diffusion convolutions over the region graph
(random-walk operator and its transpose, capturing both diffusion
directions).  We run the encoder over the history window and project the
final hidden state to the next-day prediction.

Batched-native: the diffusion convolution and the DCGRU cell operate on
trailing dimensions of ``(..., R, d)`` states, so a stacked
``(B, R, W, C)`` batch runs the recurrence once over ``(B, R, ·)``
hidden states (the supports broadcast over the batch axis);
``ForecastModel`` derives the per-sample ``forward`` and the MSE
objective from ``forward_batch``.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn import Tensor
from ..training.interface import ForecastModel

__all__ = ["DCRNN", "random_walk_supports"]


def random_walk_supports(adjacency: np.ndarray) -> list[np.ndarray]:
    """Forward and backward random-walk operators ``D⁻¹A`` and ``D⁻¹Aᵀ``."""
    supports = []
    for a in (adjacency, adjacency.T):
        degree = a.sum(axis=1, keepdims=True)
        supports.append(a / np.maximum(degree, 1e-12))
    return supports


class _DiffusionConv(nn.Module):
    """K-hop bidirectional diffusion convolution."""

    def __init__(self, in_dim: int, out_dim: int, supports: list[np.ndarray], k_hops: int, rng):
        super().__init__()
        self.supports = [Tensor(s) for s in supports]
        self.k_hops = k_hops
        num_matrices = len(supports) * k_hops + 1  # + identity
        self.linear = nn.Linear(in_dim * num_matrices, out_dim, rng)

    def forward(self, x: Tensor) -> Tensor:
        """``x``: (..., R, d_in) -> (..., R, d_out); supports broadcast over
        any leading (batch) axes."""
        terms = [x]
        for support in self.supports:
            hop = x
            for _ in range(self.k_hops):
                hop = support @ hop
                terms.append(hop)
        return self.linear(nn.concatenate(terms, axis=-1))


class _DCGRUCell(nn.Module):
    def __init__(self, in_dim: int, hidden: int, supports: list[np.ndarray], k_hops: int, rng):
        super().__init__()
        self.hidden = hidden
        self.gate_conv = _DiffusionConv(in_dim + hidden, 2 * hidden, supports, k_hops, rng)
        self.cand_conv = _DiffusionConv(in_dim + hidden, hidden, supports, k_hops, rng)

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        combined = nn.concatenate([x, h], axis=-1)
        gates = self.gate_conv(combined).sigmoid()
        r, u = gates[..., : self.hidden], gates[..., self.hidden :]
        candidate = self.cand_conv(nn.concatenate([x, r * h], axis=-1)).tanh()
        return u * h + (1.0 - u) * candidate


class DCRNN(ForecastModel):
    """Encoder-style DCRNN for next-day crime prediction."""

    def __init__(
        self,
        adjacency: np.ndarray,
        num_categories: int,
        hidden: int = 16,
        k_hops: int = 2,
        seed: int = 0,
    ):
        super().__init__()
        rng = np.random.default_rng(seed)
        supports = random_walk_supports(adjacency)
        self.num_regions = adjacency.shape[0]
        self.hidden = hidden
        self.cell = _DCGRUCell(num_categories, hidden, supports, k_hops, rng)
        self.head = nn.Linear(hidden, num_categories, rng)

    def forward_batch(self, windows: np.ndarray) -> Tensor:
        """``(B, R, W, C)`` stacked histories -> ``(B, R, C)`` predictions."""
        windows = np.asarray(windows)
        if windows.ndim != 4:
            raise ValueError(f"expected a (B, R, W, C) batch, got shape {windows.shape}")
        b, _, steps, _ = windows.shape
        h = Tensor(np.zeros((b, self.num_regions, self.hidden)))
        for t in range(steps):
            h = self.cell(Tensor(windows[:, :, t, :]), h)
        return self.head(h)
