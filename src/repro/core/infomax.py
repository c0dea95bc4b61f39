"""Hypergraph infomax network (paper Eqs 6–7).

A generative self-supervision task: a readout ``Ψ_{t,c}`` averages the
hypergraph embeddings of all regions for a (time, category) pair (Eq 6);
a bilinear discriminator is then trained to tell embeddings propagated
over the *original* hypergraph structure apart from embeddings
propagated over a *corrupt* (region-shuffled) structure (Eq 7).
Maximising this mutual-information proxy injects global urban context
into every region embedding.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn import Tensor
from ..nn import functional as F

__all__ = ["HypergraphInfomax"]


class HypergraphInfomax(nn.Module):
    """Bilinear discriminator between node- and graph-level embeddings."""

    def __init__(self, dim: int, rng: np.random.Generator):
        super().__init__()
        self.bilinear = nn.Parameter(nn.init.xavier_uniform((dim, dim), rng))

    def scores(self, summary: Tensor, nodes: Tensor) -> Tensor:
        """Discriminator logits ``Ψᵀ W Γ_r`` for every node.

        ``summary``: ``(T, C, d)`` readouts; ``nodes``: ``(T, R, C, d)``.
        Returns logits of shape ``(T, R, C)``.
        """
        projected = summary @ self.bilinear  # (T, C, d)
        # (T, R, C, d) · (T, 1, C, d) summed over d
        return (nodes * projected.expand_dims(1)).sum(axis=-1)

    def forward(self, original: Tensor, corrupt: Tensor, num_regions: int) -> Tensor:
        """Infomax BCE loss ``L^(I)`` (Eq 7).

        Both inputs are stacked ``(B, T, RC, d)`` hypergraph embeddings.
        The readout Ψ (Eq 6) is per (time, category) pair, so the windows
        flatten into the time axis without changing the objective.  Ψ is
        computed from the original embeddings only.
        """
        nodes, d = original.shape[-2:]
        num_categories = nodes // num_regions
        orig = original.reshape(-1, num_regions, num_categories, d)
        corr = corrupt.reshape(-1, num_regions, num_categories, d)
        summary = orig.mean(axis=1)  # Eq 6: Ψ_{t,c} = Σ_r Γ_{r,t,c} / R
        positive = self.scores(summary, orig)
        negative = self.scores(summary, corr)
        logits = nn.concatenate([positive.reshape(-1), negative.reshape(-1)], axis=0)
        labels = np.concatenate(
            [np.ones(positive.size), np.zeros(negative.size)]
        )
        return F.binary_cross_entropy_with_logits(logits, labels)
