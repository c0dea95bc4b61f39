"""Region-wise hypergraph relation encoding (paper Eq 4).

A learnable incidence matrix ``H ∈ R^{H×RC}`` connects every
(region, category) node to ``H`` hyperedges.  Message passing is the
two-hop product ``Γ^(R)_t = σ(Hᵀ · σ(H · E_t))``: node embeddings are
gathered into hyperedge "hub" representations, then scattered back, so
any two regions can exchange information in one round regardless of
geographic distance — the global dependency channel that counteracts the
skewed-distribution problem (§III-C1).

Implementation note: the paper's ``H_t`` is time-indexed.  Learning an
independent ``R·C×H`` matrix for every day of a two-year span is neither
tractable nor what the released reference code does; we follow the
released implementation and share one learnable incidence matrix across
the window.  Time-evolving *relevance* (Figure 8's per-day top regions)
still emerges because propagation acts on the day-specific embeddings
``E_t``; see :meth:`HypergraphEncoder.relevance`.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn import Tensor

__all__ = ["HypergraphEncoder"]


class HypergraphEncoder(nn.Module):
    """Learnable-hypergraph message passing over region-category nodes."""

    def __init__(
        self,
        num_nodes: int,
        num_hyperedges: int,
        leaky_slope: float,
        rng: np.random.Generator,
    ):
        super().__init__()
        self.num_nodes = num_nodes
        self.num_hyperedges = num_hyperedges
        self.leaky_slope = leaky_slope
        self.incidence = nn.Parameter(
            nn.init.xavier_uniform((num_hyperedges, num_nodes), rng)
        )

    def forward(self, node_embeddings: Tensor) -> Tensor:
        """Propagate ``(B, T, RC, d)`` node embeddings through hyperedges.

        Returns ``Γ^(R)`` of the same shape.  The same incidence matrix is
        applied at each leading index, so the stack runs as one broadcast
        matmul pair.
        """
        gathered = (self.incidence @ node_embeddings).leaky_relu(self.leaky_slope)
        scattered = self.incidence.T @ gathered
        return scattered.leaky_relu(self.leaky_slope)

    def propagate_corrupt(
        self,
        node_embeddings: Tensor,
        rng: np.random.Generator,
        strategy: str = "shuffle",
        noise_scale: float = 1.0,
    ) -> Tensor:
        """Propagation over a corrupt structure for the infomax task.

        ``"shuffle"`` permutes the region-category node indices (§III-D1),
        so hyperedge memberships no longer align with crime patterns.
        ``"noise"`` perturbs node features with Gaussian noise instead — a
        corruption-strategy ablation beyond the paper.

        ``node_embeddings`` is a stack ``(B, T, RC, d)``.  Each window
        draws its own permutation, in batch order — exactly the
        permutations B sequential calls would draw, so batched and
        per-sample training consume the RNG identically.
        """
        if strategy == "shuffle":
            b = node_embeddings.shape[0]
            perms = np.stack([rng.permutation(self.num_nodes) for _ in range(b)])
            order = perms.reshape(b, 1, self.num_nodes, 1)
            corrupted = nn.take_permutation(node_embeddings, order, axis=2)
        elif strategy == "noise":
            noise = rng.standard_normal(node_embeddings.shape) * noise_scale
            corrupted = node_embeddings + Tensor(noise.astype(node_embeddings.dtype, copy=False))
        else:
            raise ValueError(f"unknown corruption strategy {strategy!r}")
        return self.forward(corrupted)

    def relevance(self, node_embeddings: Tensor | None = None) -> np.ndarray:
        """Region-hyperedge dependency scores for interpretation (Fig 8).

        Without embeddings, returns the static incidence magnitudes
        ``|H|`` normalised per hyperedge.  With day-specific embeddings
        ``(..., RC, d)`` — one window's ``(T, RC, d)`` or a batch's
        ``(B, T, RC, d)`` — returns time-aware scores: the contribution
        magnitude of each node to each hyperedge hub on each day, shape
        ``(..., H, RC)``.
        """
        weights = np.abs(self.incidence.data)
        if node_embeddings is None:
            total = weights.sum(axis=1, keepdims=True)
            return weights / np.maximum(total, 1e-12)
        strength = np.linalg.norm(node_embeddings.data, axis=-1)  # (..., RC)
        scores = weights * strength[..., None, :]
        total = scores.sum(axis=-1, keepdims=True)
        return scores / np.maximum(total, 1e-12)
