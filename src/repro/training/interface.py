"""Common forecasting-model interface: every registered model uses it.

A forecasting model maps a stack of normalised history windows
``(B, R, W, C)`` to normalised next-day predictions ``(B, R, C)``.
Every caller (the trainer, :class:`~repro.api.Forecaster`, the
``shapes`` lint pass) uses only the batched methods
``training_loss_batch``, ``predict_batch`` and ``forward_batch``, and
:class:`ForecastModel` adapts between the two granularities in both
directions, so a subclass implements one of:

* ``forward(window)`` — one ``(R, W, C)`` window to ``(R, C)``; the
  default ``forward_batch`` stacks one ``forward`` per window, in order,
  so dropout draws and per-image batch statistics match a per-sample
  loop;
* ``forward_batch(windows)`` — the vectorised pass; the default
  ``forward`` is its ``B=1`` view.

A subclass that implements neither recurses between the two defaults
(the ``shapes`` lint pass reports it).  Models add auxiliary or
non-MSE objectives by overriding ``training_loss_batch``: ST-HSL
(:class:`~repro.core.STHSL`) overrides it for the joint objective of
paper Eq 10, whose self-supervised terms read the forward's
intermediate views.

Inference runs graph-free: ``predict_batch`` executes under
:class:`~repro.nn.tensor.no_grad` with a per-model, *per-thread*
:class:`~repro.nn.BufferArena`, so repeated calls reuse one pool of
preallocated op buffers instead of re-allocating every intermediate —
and concurrent calls from several threads are isolated (grad mode and
the active arena live in the thread-local
:class:`~repro.nn.context.ExecutionContext`).
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn import Tensor
from ..nn import functional as F

__all__ = ["ForecastModel"]


class ForecastModel(nn.Module):
    """Base class for next-day crime forecasters (see the module docstring)."""

    def forward(self, window: np.ndarray) -> Tensor:
        """``(R, W, C)`` history -> ``(R, C)`` prediction (``B=1`` view)."""
        window = np.asarray(window)
        if window.ndim != 3:
            raise ValueError(f"expected a (R, W, C) window, got shape {window.shape}")
        return self.forward_batch(window[None]).squeeze(0)

    def forward_batch(self, windows: np.ndarray) -> Tensor:
        """``(B, R, W, C)`` histories -> ``(B, R, C)``: one ``forward`` per window."""
        windows = np.asarray(windows)
        if not len(windows):
            return Tensor(np.zeros(windows.shape[:2] + windows.shape[3:]))
        return nn.stack([self.forward(window) for window in windows])

    def training_loss_batch(self, windows: np.ndarray, targets: np.ndarray) -> Tensor:
        """Mean squared error over the stack (the default supervised objective).

        A mean over samples, so its gradient is the average of the
        per-sample gradients: one optimizer step per batch.
        """
        return F.mse_loss(self.forward_batch(windows), targets, reduction="mean")

    def training_loss(self, window: np.ndarray, target: np.ndarray) -> Tensor:
        """The objective of one window (``B=1`` view of ``training_loss_batch``)."""
        return self.training_loss_batch(np.asarray(window)[None], np.asarray(target)[None])

    def predict(self, window: np.ndarray) -> np.ndarray:
        """One window through :meth:`predict_batch`: ``(R, W, C)`` in, ``(R, C)`` out."""
        return self.predict_batch(np.asarray(window)[None])[0]

    def predict_batch(self, windows: np.ndarray) -> np.ndarray:
        """Inference without graph construction: ``(B, R, W, C)`` in, ``(B, R, C)`` out."""
        self.eval()
        with nn.no_grad(), nn.use_arena(self._inference_arena()):
            # Copy: the output may live in an arena buffer that is recycled
            # as soon as the scope exits.
            return self.forward_batch(windows).data.copy()
