"""``repro.nn`` — a from-scratch numpy deep-learning substrate.

The paper's reference implementation targets PyTorch on GPU; this package
provides the subset of functionality ST-HSL and its fifteen baselines need:
reverse-mode autograd, conv/recurrent/attention layers, the optimiser
and checkpointing.  PyTorch is not a dependency, so the models run on
this substrate instead.
"""

from . import functional, init, kernels
from .arena import BufferArena, active_arena, use_arena
from .context import ExecutionContext, execution_context
from .layers import (
    GRU,
    BatchNorm2d,
    Conv1d,
    Conv2d,
    Dropout,
    Embedding,
    GRUCell,
    LayerNorm,
    LeakyReLU,
    Linear,
    LSTMCell,
    MultiHeadAttention,
    ReLU,
    Tanh,
)
from .module import Module, ModuleList, Parameter, Sequential
from .ops import conv1d, conv2d
from .optim import Adam, clip_grad_norm
from .serialization import (
    MANIFEST_KEY,
    load_archive,
    load_module,
    load_state,
    save_archive,
    save_module,
    save_state,
)
from .tensor import (
    Tensor,
    concatenate,
    dtype_scope,
    get_default_dtype,
    is_grad_enabled,
    no_grad,
    set_default_dtype,
    stack,
    take_permutation,
    where,
)

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "set_default_dtype",
    "get_default_dtype",
    "dtype_scope",
    "concatenate",
    "stack",
    "take_permutation",
    "where",
    "BufferArena",
    "use_arena",
    "active_arena",
    "ExecutionContext",
    "execution_context",
    "Module",
    "ModuleList",
    "Parameter",
    "Sequential",
    "Linear",
    "Conv1d",
    "Conv2d",
    "Embedding",
    "Dropout",
    "LayerNorm",
    "BatchNorm2d",
    "GRUCell",
    "GRU",
    "LSTMCell",
    "MultiHeadAttention",
    "ReLU",
    "LeakyReLU",
    "Tanh",
    "Adam",
    "clip_grad_norm",
    "conv1d",
    "conv2d",
    "functional",
    "init",
    "kernels",
    "save_state",
    "load_state",
    "save_module",
    "load_module",
    "save_archive",
    "load_archive",
    "MANIFEST_KEY",
]
