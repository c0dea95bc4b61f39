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
        x = np.asarray(window, dtype=self.type_embedding.dtype)
        lead = x.ndim - 3
        # (..., R, T, C) -> (C, ..., T, R); the window is d times smaller
        # than the output, so this is the cheap place to transpose.
        x = np.ascontiguousarray(x.transpose(lead + 2, *range(lead), lead + 1, lead))
        c, d = self.type_embedding.shape
        # (C, 1, ..., T, R) * (C, d, 1, ..., 1) -> (C, d, ..., T, R)
        scaled = Tensor(x).expand_dims(1) * self.type_embedding.reshape(c, d, *(1,) * (lead + 2))
        return scaled.transpose(*range(2, 2 + lead), lead + 3, lead + 2, 0, 1)
