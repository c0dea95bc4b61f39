"""Crime embedding layer (paper Eq 1).

Each crime-type ``c`` owns a learnable vector ``e_c``; the initial
representation of cell ``(r, t, c)`` is its Z-scored count times that
vector: ``e_{r,t,c} = ZScore(X_{r,t,c}) · e_c``.

The product is written channel-major, ``(C, d, B, T, R)`` in memory —
the spatial encoder's ``(C*d, B*T, I, J)`` conv input — and returned as
a ``(B, R, T, C, d)`` view of it.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn import Tensor

__all__ = ["CrimeEmbedding"]


class CrimeEmbedding(nn.Module):
    """Maps a stack of normalised crime windows ``(B, R, T, C)`` to ``(B, R, T, C, d)``."""

    def __init__(self, num_categories: int, dim: int, rng: np.random.Generator):
        super().__init__()
        self.type_embedding = nn.Parameter(nn.init.normal((num_categories, dim), rng, std=0.1))

    def forward(self, windows: np.ndarray) -> Tensor:
        """``windows`` are already Z-scored (Eq 1's (x-μ)/σ is done upstream
        with training-split statistics to avoid test leakage)."""
        x = np.asarray(windows, dtype=self.type_embedding.dtype)
        # (B, R, T, C) -> (C, B, T, R); the window is d times smaller than
        # the output, so this is the cheap place to transpose.
        x = np.ascontiguousarray(x.transpose(3, 0, 2, 1))
        c, d = self.type_embedding.shape
        # (C, 1, B, T, R) * (C, d, 1, 1, 1) -> (C, d, B, T, R)
        scaled = Tensor(x).expand_dims(1) * self.type_embedding.reshape(c, d, 1, 1, 1)
        return scaled.transpose(2, 4, 3, 0, 1)
