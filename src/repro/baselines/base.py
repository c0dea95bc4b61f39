"""Shared building blocks for the baseline zoo.

Every Table III baseline is re-implemented on the ``repro.nn`` substrate
with its distinguishing inductive bias intact.  This
module holds the pieces several of them share: graph convolutions over
the region graph, gated temporal convolutions, and the statistical-model
base class for ARIMA/SVR-style methods that are fit at prediction time.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn import Tensor
from ..training.interface import ForecastModel

__all__ = ["StatisticalBaseline", "GraphConv", "GatedTemporalConv"]


class StatisticalBaseline(ForecastModel):
    """Base for per-series statistical methods (no gradient training).

    Subclasses implement :meth:`predict_series` for a single univariate
    history; :meth:`forward` maps it over every (region, category) pair.
    Their registry specs say ``requires_training=False``, so
    :meth:`repro.api.Forecaster.fit` skips the gradient loop.  These
    models own no parameters at all — the optimiser and trainer tolerate
    an empty parameter list, so no dummy-parameter workaround is needed.
    """

    def predict_series(self, series: np.ndarray) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def forward(self, window: np.ndarray) -> Tensor:
        regions, _, categories = window.shape
        out = np.empty((regions, categories))
        for r in range(regions):
            for c in range(categories):
                out[r, c] = self.predict_series(window[r, :, c])
        return Tensor(out)

    def training_loss_batch(self, windows: np.ndarray, targets: np.ndarray) -> Tensor:
        """Statistical baselines have nothing to optimise."""
        return Tensor(np.zeros(()), requires_grad=False)


class GraphConv(nn.Module):
    """One-hop graph convolution ``σ(Â X W)`` over a fixed operator ``Â``.

    ``support`` is any ``(R, R)`` propagation matrix — symmetric GCN
    normalisation, random-walk, or a learned adjacency passed at call
    time.
    """

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, support: np.ndarray | None = None):
        super().__init__()
        self.support = None if support is None else Tensor(np.asarray(support))
        self.linear = nn.Linear(in_dim, out_dim, rng)

    def forward(self, x: Tensor, support: Tensor | None = None) -> Tensor:
        """``x``: (R, d) or (B, R, d); ``support`` overrides the fixed one."""
        operator = support if support is not None else self.support
        if operator is None:
            raise ValueError("GraphConv needs a support matrix")
        return operator @ self.linear(x)


class GatedTemporalConv(nn.Module):
    """GLU-gated 1-D temporal convolution (STGCN / Graph WaveNet style).

    ``out = (W_f ∗ x) ⊙ σ(W_g ∗ x)`` with 'same' padding so the time
    length is preserved.
    """

    def __init__(
        self,
        channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        dilation: int = 1,
    ):
        super().__init__()
        padding = (kernel_size - 1) * dilation // 2
        self.filter_conv = nn.Conv1d(channels, channels, kernel_size, rng, padding=padding, dilation=dilation)
        self.gate_conv = nn.Conv1d(channels, channels, kernel_size, rng, padding=padding, dilation=dilation)

    def forward(self, x: Tensor) -> Tensor:
        """``x``: (N, channels, T) -> same shape."""
        return self.filter_conv(x).tanh() * self.gate_conv(x).sigmoid()
