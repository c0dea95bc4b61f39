"""SVM baseline (paper: LIBSVM, Chang & Lin 2011).

An epsilon-insensitive support vector regressor on lag features: each
category owns a linear model over the region's ``W``-day history.  The
epsilon-insensitive hinge loss and L2 regularisation are optimised by
(sub)gradient descent through the autograd engine — the primal form of
linear SVR.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn import Tensor
from ..training.interface import ForecastModel

__all__ = ["SVR"]


class SVR(ForecastModel):
    """Linear epsilon-SVR per crime category over lag windows."""

    def __init__(
        self,
        window: int,
        num_categories: int,
        seed: int = 0,
        epsilon: float = 0.1,
        c_reg: float = 1e-3,
    ):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.epsilon = epsilon
        self.c_reg = c_reg
        # One weight vector per category: (C, W) + bias (C,)
        self.weight = nn.Parameter(nn.init.xavier_uniform((num_categories, window), rng))
        self.bias = nn.Parameter(np.zeros(num_categories))

    def forward(self, window: np.ndarray) -> Tensor:
        """``window`` (R, W, C) -> predictions (R, C)."""
        x = Tensor(np.asarray(window, dtype=np.float64))
        # einsum 'rwc,cw->rc' via elementwise multiply + sum
        per_cat = (x.transpose(0, 2, 1) * self.weight).sum(axis=-1)  # (R, C)
        return per_cat + self.bias

    def training_loss_batch(self, windows: np.ndarray, targets: np.ndarray) -> Tensor:
        """Primal SVR objective: eps-insensitive loss (mean over the stack)
        + (C_reg/2)·‖w‖², regularised once per optimizer step."""
        pred = self.forward_batch(windows)
        err = (pred - Tensor(np.asarray(targets))).abs()
        hinge = (err - self.epsilon).relu().mean()
        reg = (self.weight * self.weight).sum() * (self.c_reg / 2.0)
        return hinge + reg
