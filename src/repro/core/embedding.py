"""Crime embedding layer (paper Eq 1).

Each crime-type ``c`` owns a learnable vector ``e_c``; the initial
representation of cell ``(r, t, c)`` is its Z-scored count times that
vector: ``e_{r,t,c} = ZScore(X_{r,t,c}) · e_c``.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn import Tensor

__all__ = ["CrimeEmbedding"]


class CrimeEmbedding(nn.Module):
    """Maps a normalised crime window ``(R, T, C)`` to ``(R, T, C, d)``.

    Also accepts a stacked batch ``(B, R, T, C)``, mapping it to
    ``(B, R, T, C, d)`` — the scaling of Eq 1 broadcasts over any number
    of leading axes.
    """

    def __init__(self, num_categories: int, dim: int, rng: np.random.Generator):
        super().__init__()
        self.type_embedding = nn.Parameter(nn.init.normal((num_categories, dim), rng, std=0.1))

    def forward(self, window: np.ndarray) -> Tensor:
        """``window`` is already Z-scored (Eq 1's (x-μ)/σ is done upstream
        with training-split statistics to avoid test leakage)."""
        x = Tensor(np.asarray(window, dtype=self.type_embedding.dtype))
        # (..., R, T, C, 1) * (C, d) -> (..., R, T, C, d)
        return x.expand_dims(-1) * self.type_embedding
