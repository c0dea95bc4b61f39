"""Weight initialisation schemes.

All initialisers take an explicit ``numpy.random.Generator`` so that model
construction is fully deterministic given a seed, so every run of a
reproduced table rebuilds the same models.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["xavier_uniform", "xavier_normal", "kaiming_uniform", "uniform", "zeros", "normal"]


def _fan_in_out(shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) < 2:
        return shape[0], shape[0]
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    fan_in = shape[1] * receptive
    fan_out = shape[0] * receptive
    return fan_in, fan_out


def xavier_uniform(shape: tuple[int, ...], rng: np.random.Generator, gain: float = 1.0) -> np.ndarray:
    """Glorot uniform: U(-a, a) with a = gain * sqrt(6 / (fan_in + fan_out))."""
    fan_in, fan_out = _fan_in_out(shape)
    bound = gain * math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def xavier_normal(shape: tuple[int, ...], rng: np.random.Generator, gain: float = 1.0) -> np.ndarray:
    fan_in, fan_out = _fan_in_out(shape)
    std = gain * math.sqrt(2.0 / (fan_in + fan_out))
    return rng.normal(0.0, std, size=shape)


def kaiming_uniform(shape: tuple[int, ...], rng: np.random.Generator, negative_slope: float = math.sqrt(5.0)) -> np.ndarray:
    """He uniform, the torch default for Linear/Conv layers."""
    fan_in, _ = _fan_in_out(shape)
    gain = math.sqrt(2.0 / (1.0 + negative_slope ** 2))
    bound = gain * math.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def uniform(shape: tuple[int, ...], rng: np.random.Generator, bound: float) -> np.ndarray:
    return rng.uniform(-bound, bound, size=shape)


def normal(shape: tuple[int, ...], rng: np.random.Generator, std: float = 0.02) -> np.ndarray:
    return rng.normal(0.0, std, size=shape)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape)
