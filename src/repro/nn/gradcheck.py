"""Finite-difference gradient checking for the autograd engine.

Used heavily by the test suite to validate every primitive op and layer
against central differences.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .tensor import Tensor

__all__ = ["numeric_grad", "gradcheck"]


def numeric_grad(
    fn: Callable[..., Tensor], inputs: Sequence[Tensor], index: int, eps: float = 1e-6
) -> np.ndarray:
    """Central-difference gradient of ``sum(fn(*inputs))`` w.r.t. one input.

    Each element is perturbed in place through its index, so an input of
    any memory layout works: ``reshape(-1)`` of a non-contiguous array
    would perturb a copy and read a zero gradient.
    """
    target = inputs[index]
    grad = np.zeros_like(target.data)
    for i in np.ndindex(target.data.shape):
        original = target.data[i]
        target.data[i] = original + eps
        plus = float(fn(*inputs).data.sum())
        target.data[i] = original - eps
        minus = float(fn(*inputs).data.sum())
        target.data[i] = original
        grad[i] = (plus - minus) / (2.0 * eps)
    return grad


def gradcheck(
    fn: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    rtol: float = 1e-4,
    atol: float = 1e-6,
    eps: float = 1e-6,
) -> bool:
    """Assert analytic gradients match finite differences for each input.

    Raises ``AssertionError`` with the offending index on mismatch.
    """
    out = fn(*inputs)
    out.sum().backward()
    analytic = [inp.grad.copy() if inp.grad is not None else np.zeros_like(inp.data) for inp in inputs]
    for inp in inputs:
        inp.grad = None
    for idx, inp in enumerate(inputs):
        if not inp.requires_grad:
            continue
        numeric = numeric_grad(fn, inputs, idx, eps=eps)
        if not np.allclose(analytic[idx], numeric, rtol=rtol, atol=atol):
            worst = np.abs(analytic[idx] - numeric).max()
            raise AssertionError(f"gradcheck failed for input {idx}: max abs err {worst:.3e}")
    return True
