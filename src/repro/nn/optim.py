"""The optimiser, Adam, plus gradient clipping.

ST-HSL trains with Adam at lr=1e-3 (paper §IV-A4), and so does every
baseline in the comparison; the weight-decay term λ3‖Θ‖² of Eq 10 is
applied here as L2 regularisation so every model shares the same
implementation.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .module import Parameter

__all__ = ["Optimizer", "Adam", "clip_grad_norm"]


class Optimizer:
    """Base class holding the parameter list and zero_grad.

    An empty parameter list is allowed — ``step``/``zero_grad`` become
    no-ops — so parameterless models (the statistical baselines, which
    fit at prediction time) flow through the shared trainer without
    dummy-parameter workarounds.
    """

    def __init__(self, params: Iterable[Parameter]):
        self.params = [p for p in params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        raise NotImplementedError


class Adam(Optimizer):
    """Adam (Kingma & Ba) with bias correction and optional L2 decay."""

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self._step += 1
        bc1 = 1.0 - self.beta1 ** self._step
        bc2 = 1.0 - self.beta2 ** self._step
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bc1
            v_hat = v / bc2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def clip_grad_norm(params: Iterable[Parameter], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm (handy for monitoring training stability).
    """
    params = [p for p in params if p.grad is not None]
    total = math.sqrt(sum(float((p.grad ** 2).sum()) for p in params))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for p in params:
            p.grad *= scale
    return total
