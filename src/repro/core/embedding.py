"""Crime embedding layer (paper Eq 1).

Each crime-type ``c`` owns a learnable vector ``e_c``; the initial
representation of cell ``(r, t, c)`` is its Z-scored count times that
vector: ``e_{r,t,c} = ZScore(X_{r,t,c}) · e_c``.

The window is transposed once to channel-major ``(C, B, T, R)`` memory
(:meth:`CrimeEmbedding.counts`), which the model shares with the spatial
encoder's first layer.  The product is written channel-major too,
``(C, d, B, T, R)`` in memory — the spatial encoder's ``(C*d, B*T, I,
J)`` residual — and returned as a ``(B, R, T, C, d)`` view of it.
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

    def counts(self, windows: np.ndarray) -> np.ndarray:
        """``(B, R, T, C)`` windows as C-contiguous ``(C, B, T, R)`` memory
        of the parameter dtype: a view when they already are, else a
        copy.  The window is d times smaller than the embedding, so this
        is the cheap place to transpose."""
        x = np.asarray(windows, dtype=self.type_embedding.dtype)
        return np.ascontiguousarray(x.transpose(3, 0, 2, 1))

    def forward(self, windows: np.ndarray) -> Tensor:
        """``windows`` are already Z-scored (Eq 1's (x-μ)/σ is done upstream
        with training-split statistics to avoid test leakage).  A ``(B, R,
        T, C)`` view over :meth:`counts` memory is read in place."""
        x = self.counts(windows)
        c, d = self.type_embedding.shape
        # (C, 1, B, T, R) * (C, d, 1, 1, 1) -> (C, d, B, T, R)
        scaled = Tensor(x).expand_dims(1) * self.type_embedding.reshape(c, d, 1, 1, 1)
        return scaled.transpose(2, 4, 3, 0, 1)
