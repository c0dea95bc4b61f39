"""Standard neural network layers built on the autograd substrate.

Every layer takes an explicit ``numpy.random.Generator`` for weight
initialisation, so model construction is a pure function of the seed.
"""

from __future__ import annotations

import math

import numpy as np

from . import functional as F
from . import init
from .module import Module, Parameter
from .ops import conv1d, conv2d
from .tensor import Tensor, concatenate

__all__ = [
    "Linear",
    "BatchNorm2d",
    "Conv2d",
    "Conv1d",
    "Embedding",
    "Dropout",
    "LayerNorm",
    "GRUCell",
    "GRU",
    "LSTMCell",
    "MultiHeadAttention",
    "ReLU",
    "LeakyReLU",
    "Tanh",
]


class Linear(Module):
    """Affine map ``y = x W^T + b`` applied to the trailing dimension."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator, bias: bool = True):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), rng))
        if bias:
            bound = 1.0 / math.sqrt(in_features)
            self.bias = Parameter(init.uniform((out_features,), rng, bound))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight.T
        if self.bias is not None:
            out = out + self.bias
        return out


class Conv2d(Module):
    """2-D convolution over ``(N, C_in, H, W)`` inputs."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size,
        rng: np.random.Generator,
        stride=1,
        padding=0,
        bias: bool = True,
    ):
        super().__init__()
        kh, kw = (kernel_size, kernel_size) if isinstance(kernel_size, int) else kernel_size
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(init.kaiming_uniform((out_channels, in_channels, kh, kw), rng))
        if bias:
            bound = 1.0 / math.sqrt(in_channels * kh * kw)
            self.bias = Parameter(init.uniform((out_channels,), rng, bound))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class Conv1d(Module):
    """1-D convolution over ``(N, C_in, L)`` inputs, with dilation support."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        stride: int = 1,
        padding: int = 0,
        dilation: int = 1,
        bias: bool = True,
    ):
        super().__init__()
        self.stride = stride
        self.padding = padding
        self.dilation = dilation
        self.weight = Parameter(init.kaiming_uniform((out_channels, in_channels, kernel_size), rng))
        if bias:
            bound = 1.0 / math.sqrt(in_channels * kernel_size)
            self.bias = Parameter(init.uniform((out_channels,), rng, bound))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return conv1d(
            x, self.weight, self.bias, stride=self.stride, padding=self.padding, dilation=self.dilation
        )


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors."""

    def __init__(self, num_embeddings: int, embedding_dim: int, rng: np.random.Generator):
        super().__init__()
        self.weight = Parameter(init.normal((num_embeddings, embedding_dim), rng, std=0.1))

    def forward(self, ids) -> Tensor:
        ids = np.asarray(ids, dtype=np.intp)
        return self.weight[ids]


class Dropout(Module):
    """Inverted dropout; a no-op in eval mode."""

    def __init__(self, rate: float, rng: np.random.Generator):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = rng

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.rate, self.training, self._rng)


class BatchNorm2d(Module):
    """Batch normalisation over ``(N, C, H, W)`` images.

    Used by the ST-ResNet baseline's residual units, as in the original
    architecture.  Running statistics are tracked for eval mode and saved
    with the state as buffers.
    """

    def __init__(self, num_channels: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.eps = eps
        self.momentum = momentum
        self.gamma = Parameter(np.ones(num_channels))
        self.beta = Parameter(np.zeros(num_channels))
        self.register_buffer("running_mean", np.zeros(num_channels))
        self.register_buffer("running_var", np.ones(num_channels))

    def forward(self, x: Tensor) -> Tensor:
        if self.training:
            mean = x.data.mean(axis=(0, 2, 3))
            var = x.data.var(axis=(0, 2, 3))
            self.running_mean += self.momentum * (mean - self.running_mean)
            self.running_var += self.momentum * (var - self.running_var)
            # Centre/scale with batch stats as constants w.r.t. the graph
            # except through gamma/beta (sufficient for small-batch
            # training; full BN backprop through the stats is unnecessary
            # at batch size 1 where stats are per-image).
            mean_t = Tensor(mean.reshape(1, -1, 1, 1))
            var_t = Tensor(var.reshape(1, -1, 1, 1))
        else:
            mean_t = Tensor(self.running_mean.reshape(1, -1, 1, 1))
            var_t = Tensor(self.running_var.reshape(1, -1, 1, 1))
        normed = (x - mean_t) / (var_t + self.eps).sqrt()
        return normed * self.gamma.reshape(1, -1, 1, 1) + self.beta.reshape(1, -1, 1, 1)


class LayerNorm(Module):
    """Layer normalisation over the trailing dimension."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5):
        super().__init__()
        self.eps = eps
        self.gamma = Parameter(np.ones(normalized_shape))
        self.beta = Parameter(np.zeros(normalized_shape))

    def forward(self, x: Tensor) -> Tensor:
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        normed = (x - mean) / (var + self.eps).sqrt()
        return normed * self.gamma + self.beta


class GRUCell(Module):
    """Single-step gated recurrent unit (used by DeepCrime, AGCRN, DCRNN)."""

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        super().__init__()
        self.hidden_size = hidden_size
        self.w_ih = Parameter(init.kaiming_uniform((3 * hidden_size, input_size), rng))
        self.w_hh = Parameter(init.kaiming_uniform((3 * hidden_size, hidden_size), rng))
        bound = 1.0 / math.sqrt(hidden_size)
        self.b_ih = Parameter(init.uniform((3 * hidden_size,), rng, bound))
        self.b_hh = Parameter(init.uniform((3 * hidden_size,), rng, bound))

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        gi = x @ self.w_ih.T + self.b_ih
        gh = h @ self.w_hh.T + self.b_hh
        hs = self.hidden_size
        r = (gi[:, :hs] + gh[:, :hs]).sigmoid()
        z = (gi[:, hs : 2 * hs] + gh[:, hs : 2 * hs]).sigmoid()
        n = (gi[:, 2 * hs :] + r * gh[:, 2 * hs :]).tanh()
        return n + z * (h - n)


class GRU(Module):
    """Unrolled GRU over a ``(N, T, D)`` sequence; returns all hidden states."""

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        super().__init__()
        self.cell = GRUCell(input_size, hidden_size, rng)
        self.hidden_size = hidden_size

    def forward(self, x: Tensor, h0: Tensor | None = None) -> tuple[Tensor, Tensor]:
        n, t, _ = x.shape
        h = h0 if h0 is not None else Tensor(np.zeros((n, self.hidden_size)))
        outputs = []
        for step in range(t):
            h = self.cell(x[:, step, :], h)
            outputs.append(h.expand_dims(1))
        return concatenate(outputs, axis=1), h


class LSTMCell(Module):
    """Single-step LSTM (used by the D-LSTM-style temporal encoders)."""

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        super().__init__()
        self.hidden_size = hidden_size
        self.w_ih = Parameter(init.kaiming_uniform((4 * hidden_size, input_size), rng))
        self.w_hh = Parameter(init.kaiming_uniform((4 * hidden_size, hidden_size), rng))
        bound = 1.0 / math.sqrt(hidden_size)
        self.b = Parameter(init.uniform((4 * hidden_size,), rng, bound))

    def forward(self, x: Tensor, state: tuple[Tensor, Tensor]) -> tuple[Tensor, Tensor]:
        h, c = state
        gates = x @ self.w_ih.T + h @ self.w_hh.T + self.b
        hs = self.hidden_size
        i = gates[:, :hs].sigmoid()
        f = gates[:, hs : 2 * hs].sigmoid()
        g = gates[:, 2 * hs : 3 * hs].tanh()
        o = gates[:, 3 * hs :].sigmoid()
        c_next = f * c + i * g
        h_next = o * c_next.tanh()
        return h_next, c_next


class MultiHeadAttention(Module):
    """Scaled dot-product multi-head attention (STtrans, GMAN, STDN)."""

    def __init__(self, dim: int, num_heads: int, rng: np.random.Generator):
        super().__init__()
        if dim % num_heads:
            raise ValueError(f"dim {dim} not divisible by num_heads {num_heads}")
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.q_proj = Linear(dim, dim, rng)
        self.k_proj = Linear(dim, dim, rng)
        self.v_proj = Linear(dim, dim, rng)
        self.out_proj = Linear(dim, dim, rng)

    def _split(self, x: Tensor) -> Tensor:
        n, t, _ = x.shape
        return x.reshape(n, t, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def forward(self, query: Tensor, key: Tensor | None = None, value: Tensor | None = None) -> Tensor:
        key = query if key is None else key
        value = key if value is None else value
        q = self._split(self.q_proj(query))
        k = self._split(self.k_proj(key))
        v = self._split(self.v_proj(value))
        scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / math.sqrt(self.head_dim))
        attn = F.softmax(scores, axis=-1)
        mixed = attn @ v  # (N, heads, Tq, head_dim)
        n, _, tq, _ = mixed.shape
        merged = mixed.transpose(0, 2, 1, 3).reshape(n, tq, self.num_heads * self.head_dim)
        return self.out_proj(merged)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class LeakyReLU(Module):
    def __init__(self, negative_slope: float = 0.2):
        super().__init__()
        self.negative_slope = negative_slope

    def forward(self, x: Tensor) -> Tensor:
        return x.leaky_relu(self.negative_slope)


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()
