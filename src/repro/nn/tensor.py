"""Reverse-mode automatic differentiation over numpy arrays.

This module is the foundation of the ``repro.nn`` substrate.  The paper's
reference implementation is written in PyTorch; that library is not
available in this environment, so we provide a compatible-in-spirit
``Tensor`` class that records a dynamic computation graph and computes
gradients by reverse-mode accumulation.

Design notes
------------
* Every differentiable operation creates a new ``Tensor`` whose
  ``_backward`` closure knows how to push the output gradient to the
  operation's inputs.  ``Tensor.backward`` walks the graph once in reverse
  topological order.
* Gradients of broadcast operands are reduced back to the operand shape by
  :func:`unbroadcast`, mirroring numpy broadcasting semantics exactly.
* Arrays are stored as ``float64`` by default, which keeps finite-difference
  gradient checks (:func:`repro.nn.gradcheck.gradcheck`, which
  ``tests/nn/test_ops.py`` runs on every conv geometry) tight.
* All ambient execution state — the grad flag, the active arena, the
  default dtype — lives in the thread-local
  :class:`~repro.nn.context.ExecutionContext`, so ``no_grad``/
  ``use_arena``/``dtype_scope`` scopes opened on one thread never leak
  into another; concurrent inference and training are isolated per
  thread.
* Inside :class:`no_grad`, every op takes a *graph-free fast path*: the
  backward closure is never constructed, no parents are tracked, the
  result is wrapped by the slim :meth:`Tensor._from_array` constructor,
  and — when a :class:`~repro.nn.arena.BufferArena` is active — outputs
  are written into reusable preallocated buffers via ufunc ``out=``
  instead of fresh allocations.  The fast path performs the identical
  sequence of IEEE operations, so inference results match the
  graph-building path bitwise (locked by ``tests/api/test_registry.py``).
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from .context import _CONTEXT as _CTX

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "unbroadcast",
    "set_default_dtype",
    "get_default_dtype",
    "dtype_scope",
    "concatenate",
    "stack",
    "take_permutation",
    "where",
]

# ---------------------------------------------------------------------------
# Compute dtype control
# ---------------------------------------------------------------------------
# float64 keeps finite-difference gradient checks tight and is the default;
# float32 halves memory traffic on the conv/matmul hot paths and is exposed
# as an opt-in compute mode (see STHSLConfig.compute_dtype).  The active
# default lives in the thread-local ExecutionContext, so a dtype_scope on
# one thread cannot recast tensors another thread is creating concurrently.
_FLOAT64 = np.dtype(np.float64)
_ALLOWED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def set_default_dtype(dtype) -> None:
    """Set the dtype new tensors are created with (float32 or float64).

    Integer/bool inputs are always promoted to this dtype; float inputs are
    recast only when a non-float64 default is active, so the float64 default
    preserves historical behaviour exactly.  Applies to the calling thread
    only (the state is thread-local).
    """
    resolved = np.dtype(dtype)
    if resolved not in _ALLOWED_DTYPES:
        raise ValueError(
            f"default dtype must be float32 or float64, got {dtype!r}"
        )
    _CTX.default_dtype = resolved


def get_default_dtype() -> np.dtype:
    """Return the dtype used for newly created tensors (this thread's)."""
    return _CTX.default_dtype


class dtype_scope:
    """Context manager that temporarily switches the default compute dtype
    for the calling thread."""

    def __init__(self, dtype):
        self._dtype = dtype
        self._prev: np.dtype | None = None

    def __enter__(self) -> "dtype_scope":
        self._prev = _CTX.default_dtype
        set_default_dtype(self._dtype)
        return self

    def __exit__(self, *exc) -> None:
        set_default_dtype(self._prev)


class no_grad:
    """Context manager that disables graph construction.

    Mirrors ``torch.no_grad()``: inside the block, results of operations on
    tensors that require grad do not require grad themselves.  Ops take the
    graph-free fast path — no backward closures, no parent tracking, and
    arena-backed output buffers when one is active.  The flag is
    thread-local: a ``no_grad`` scope on one thread leaves gradient
    recording untouched on every other.
    """

    def __enter__(self) -> "no_grad":
        self._prev = _CTX.grad_enabled
        _CTX.grad_enabled = False
        return self

    def __exit__(self, *exc) -> None:
        _CTX.grad_enabled = self._prev


def is_grad_enabled() -> bool:
    """Whether new operations record gradient information (this thread)."""
    return _CTX.grad_enabled


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so it matches ``shape`` after numpy broadcasting.

    Summing over axes that were broadcast is the adjoint of the broadcast
    itself; this is what makes ``a + b`` differentiable for mismatched
    shapes.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes numpy prepended during broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
        if grad.shape == shape:  # fast path: only leading axes were broadcast
            return grad
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad if grad.shape == shape else grad.reshape(shape)


def _index_may_repeat(index) -> bool:
    """Whether an index could select the same element twice.

    Only integer-sequence (fancy) indices can alias; slices, scalars,
    ellipsis, ``None`` and boolean masks cannot, so their gradient can be
    written with direct slice assignment instead of ``np.add.at``.  Any
    sequence item (list, ndarray, tuple, range, ...) inside a tuple index
    is treated as fancy — numpy interprets all of them as integer arrays.
    """
    items = index if isinstance(index, tuple) else (index,)
    for item in items:
        if isinstance(item, np.ndarray):
            if item.dtype.kind != "b":
                return True
        elif not isinstance(item, (int, np.integer, slice, type(None), type(Ellipsis))):
            # list/tuple/range/other array-likes: conservatively scatter.
            return True
    return False


def _as_array(value, dtype=None) -> np.ndarray:
    if isinstance(value, Tensor):
        raise TypeError("pass Tensor.data, not Tensor, to _as_array")
    arr = np.asarray(value, dtype=dtype)
    default = _CTX.default_dtype
    if arr.dtype.kind in "iub":
        arr = arr.astype(default)
    elif arr.dtype.kind == "f" and default != np.float64 and arr.dtype != default:
        arr = arr.astype(default)
    return arr


# ---------------------------------------------------------------------------
# No-grad fast-path allocation helpers
# ---------------------------------------------------------------------------
# Each returns an arena buffer for the op's output, or None — which is what
# ufunc ``out=`` expects when numpy should allocate fresh.  Arena buffers
# are only requested for exact-shape, same-dtype results *whose inputs are
# C-contiguous*: ufuncs with ``out=None`` allocate in the input's memory
# order (K-order), and downstream reductions round differently on
# different layouts — so a C-ordered buffer is only layout-identical (and
# therefore bitwise-identical end to end) to the graph path's fresh
# allocation when that allocation would have been C-ordered too.
# Anything else (broadcasting, dtype promotion, transposed views) falls
# back to a fresh allocation, i.e. the exact call the graph path makes.


def _unary_out(x: np.ndarray) -> np.ndarray | None:
    arena = _CTX.arena
    if arena is None or not x.flags.c_contiguous:
        return None
    return arena.take(x.shape, x.dtype)


def _binary_out(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    arena = _CTX.arena
    if arena is None or a.dtype != b.dtype:
        return None
    if b.ndim == 0:
        return arena.take(a.shape, a.dtype) if a.flags.c_contiguous else None
    if a.ndim == 0:
        return arena.take(b.shape, b.dtype) if b.flags.c_contiguous else None
    if a.shape == b.shape and a.flags.c_contiguous and b.flags.c_contiguous:
        return arena.take(a.shape, a.dtype)
    return None  # broadcast / mixed layouts: let numpy shape it


def _matmul_out(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    arena = _CTX.arena
    if arena is None or a.dtype != b.dtype or a.ndim < 2 or b.ndim < 2:
        return None
    batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    return arena.take(batch + (a.shape[-2], b.shape[-1]), a.dtype)


class Tensor:
    """A numpy-backed array node in a dynamic autograd graph."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _CTX.grad_enabled
        self._backward: Callable[[], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4, threshold=8)}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but severed from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _from_array(data) -> "Tensor":
        """Slim constructor for op results: no grad, no graph, no re-coerce.

        Every no-grad fast path funnels through here.  ``data`` is the raw
        result of a numpy op on existing tensor data, so the expensive
        ``np.asarray`` round-trip of ``__init__`` is skipped; the dtype
        normalisation of :func:`_as_array` is preserved (integer results
        promote, floats recast only under a non-float64 default).
        """
        if not isinstance(data, np.ndarray):
            data = np.asarray(data)
        default = _CTX.default_dtype
        if data.dtype is not default:
            kind = data.dtype.kind
            if kind in "iub":
                data = data.astype(default)
            elif kind == "f" and default is not _FLOAT64 and data.dtype != default:
                data = data.astype(default)
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out.requires_grad = False
        out._backward = None
        out._parents = ()
        out.name = ""
        return out

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[["Tensor"], None] | None,
    ) -> "Tensor":
        """Create an op output wired to ``parents`` via ``backward``.

        ``backward`` receives the output tensor and must accumulate into
        each parent's ``grad``.
        """
        requires = _CTX.grad_enabled and any(p.requires_grad for p in parents)
        out = Tensor._from_array(data)
        if requires:
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward and (lambda out=out: backward(out))
        return out

    @staticmethod
    def _accum(parent: "Tensor", grad: np.ndarray, own: bool = False) -> None:
        """Accumulate ``grad`` into ``parent.grad`` respecting broadcasting.

        ``own=True`` asserts the caller hands over a freshly allocated array
        that no other graph node aliases, letting the first accumulation
        adopt it without a defensive copy — the dominant case on the conv
        and matmul hot paths.  Reductions performed by :func:`unbroadcast`
        always produce fresh arrays, so they are adopted too.
        """
        if not parent.requires_grad:
            return
        reduced = unbroadcast(grad, parent.data.shape)
        if parent.grad is None:
            if own or reduced is not grad:
                # np.broadcast_to views are read-only and must not be adopted.
                parent.grad = reduced if reduced.flags.writeable else reduced.copy()
            else:
                parent.grad = reduced.copy()
        else:
            parent.grad += reduced

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode accumulation from this tensor.

        ``grad`` defaults to ones (so a scalar loss needs no argument).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            grad = np.ones_like(self.data)
        self.grad = np.asarray(grad, dtype=self.data.dtype).reshape(self.data.shape).copy()

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        for node in reversed(topo):
            backward_fn = node._backward
            if backward_fn is not None and node.grad is not None:
                backward_fn()
            # Free graph references as we go so large graphs do not leak.
            node._backward = None
            node._parents = ()
            # An op output's gradient is dead once it has been pushed to its
            # parents; dropping it frees the buffer immediately and lets
            # closures transfer it to a parent without a defensive copy
            # (the ``own=True`` fast path in :meth:`_accum`).  Leaves keep
            # their gradients for the optimiser; the root keeps a snapshot
            # copy so a parent that adopted its buffer cannot mutate the
            # value the caller reads (the root is typically a scalar loss,
            # so the copy is free).
            if backward_fn is not None:
                node.grad = node.grad.copy() if node is self and node.grad is not None else None

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce(value) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def _coerce_like(self, value) -> "Tensor":
        """Coerce ``value`` to a Tensor, matching this tensor's float dtype
        for scalar operands so float32 graphs are not upcast by python
        constants (which numpy would otherwise promote to float64)."""
        if isinstance(value, Tensor):
            return value
        arr = np.asarray(value)
        if arr.ndim == 0 and self.data.dtype.kind == "f" and arr.dtype != self.data.dtype:
            arr = arr.astype(self.data.dtype)
        return Tensor(arr)

    def __add__(self, other) -> "Tensor":
        other = self._coerce_like(other)
        if not _CTX.grad_enabled:
            a, b = self.data, other.data
            return Tensor._from_array(np.add(a, b, out=_binary_out(a, b)))

        def backward(out: Tensor) -> None:
            Tensor._accum(self, out.grad)
            # out.grad is dead after this closure (backward() frees it), so
            # exactly one parent may adopt the buffer instead of copying.
            # Safe when self is other too: the first accumulation above has
            # then already populated the grad, so this one takes the
            # ``+=`` branch rather than adopting.
            Tensor._accum(other, out.grad, own=True)

        return Tensor._make(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = self._coerce_like(other)
        if not _CTX.grad_enabled:
            a, b = self.data, other.data
            return Tensor._from_array(np.subtract(a, b, out=_binary_out(a, b)))

        def backward(out: Tensor) -> None:
            Tensor._accum(self, out.grad)
            if other.requires_grad:
                Tensor._accum(other, -out.grad, own=True)

        return Tensor._make(self.data - other.data, (self, other), backward)

    def __rsub__(self, other) -> "Tensor":
        return self._coerce_like(other) - self

    def __mul__(self, other) -> "Tensor":
        other = self._coerce_like(other)
        if not _CTX.grad_enabled:
            a, b = self.data, other.data
            return Tensor._from_array(np.multiply(a, b, out=_binary_out(a, b)))

        def backward(out: Tensor) -> None:
            # Form a product only for an operand that keeps its gradient:
            # dropout's mask, Eq 1's window and constants do not.
            if self.requires_grad:
                Tensor._accum(self, out.grad * other.data, own=True)
            if other.requires_grad:
                Tensor._accum(other, out.grad * self.data, own=True)

        return Tensor._make(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce_like(other)
        if not _CTX.grad_enabled:
            a, b = self.data, other.data
            return Tensor._from_array(np.divide(a, b, out=_binary_out(a, b)))

        def backward(out: Tensor) -> None:
            Tensor._accum(self, out.grad / other.data, own=True)
            Tensor._accum(other, -out.grad * self.data / (other.data ** 2), own=True)

        return Tensor._make(self.data / other.data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce_like(other) / self

    def __neg__(self) -> "Tensor":
        if not _CTX.grad_enabled:
            return Tensor._from_array(np.negative(self.data, out=_unary_out(self.data)))

        def backward(out: Tensor) -> None:
            Tensor._accum(self, -out.grad, own=True)

        return Tensor._make(-self.data, (self,), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        if not _CTX.grad_enabled:
            return Tensor._from_array(self.data ** exponent)

        def backward(out: Tensor) -> None:
            Tensor._accum(self, out.grad * exponent * self.data ** (exponent - 1), own=True)

        return Tensor._make(self.data ** exponent, (self,), backward)

    # Comparison operators return plain boolean arrays (non-differentiable).
    def __gt__(self, other):
        return self.data > (other.data if isinstance(other, Tensor) else other)

    def __lt__(self, other):
        return self.data < (other.data if isinstance(other, Tensor) else other)

    def __ge__(self, other):
        return self.data >= (other.data if isinstance(other, Tensor) else other)

    def __le__(self, other):
        return self.data <= (other.data if isinstance(other, Tensor) else other)

    # ------------------------------------------------------------------
    # Elementwise functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        if not _CTX.grad_enabled:
            return Tensor._from_array(np.exp(self.data, out=_unary_out(self.data)))
        result = np.exp(self.data)

        def backward(out: Tensor) -> None:
            Tensor._accum(self, out.grad * result, own=True)

        return Tensor._make(result, (self,), backward)

    def log(self) -> "Tensor":
        if not _CTX.grad_enabled:
            return Tensor._from_array(np.log(self.data, out=_unary_out(self.data)))

        def backward(out: Tensor) -> None:
            Tensor._accum(self, out.grad / self.data, own=True)

        return Tensor._make(np.log(self.data), (self,), backward)

    def sqrt(self) -> "Tensor":
        if not _CTX.grad_enabled:
            return Tensor._from_array(np.sqrt(self.data, out=_unary_out(self.data)))
        result = np.sqrt(self.data)

        def backward(out: Tensor) -> None:
            Tensor._accum(self, out.grad / (2.0 * result), own=True)

        return Tensor._make(result, (self,), backward)

    def abs(self) -> "Tensor":
        if not _CTX.grad_enabled:
            return Tensor._from_array(np.abs(self.data, out=_unary_out(self.data)))

        def backward(out: Tensor) -> None:
            Tensor._accum(self, out.grad * np.sign(self.data), own=True)

        return Tensor._make(np.abs(self.data), (self,), backward)

    def tanh(self) -> "Tensor":
        if not _CTX.grad_enabled:
            return Tensor._from_array(np.tanh(self.data, out=_unary_out(self.data)))
        result = np.tanh(self.data)

        def backward(out: Tensor) -> None:
            Tensor._accum(self, out.grad * (1.0 - result ** 2), own=True)

        return Tensor._make(result, (self,), backward)

    def sigmoid(self) -> "Tensor":
        if not _CTX.grad_enabled:
            # Same IEEE op sequence as the graph path, chained in one
            # (arena-reusable) buffer: clip -> negate -> exp -> +1 -> 1/x.
            r = np.clip(self.data, -60.0, 60.0, out=_unary_out(self.data))
            np.negative(r, out=r)
            np.exp(r, out=r)
            r += 1.0
            np.divide(1.0, r, out=r)
            return Tensor._from_array(r)
        result = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))

        def backward(out: Tensor) -> None:
            Tensor._accum(self, out.grad * result * (1.0 - result), own=True)

        return Tensor._make(result, (self,), backward)

    def relu(self) -> "Tensor":
        if not _CTX.grad_enabled:
            return Tensor._from_array(np.maximum(self.data, 0.0, out=_unary_out(self.data)))
        mask = self.data > 0

        def backward(out: Tensor) -> None:
            Tensor._accum(self, out.grad * mask, own=True)

        return Tensor._make(self.data * mask, (self,), backward)

    def leaky_relu(self, negative_slope: float = 0.2) -> "Tensor":
        """LeakyReLU, the activation used throughout ST-HSL (paper σ(·))."""
        if not _CTX.grad_enabled and 0.0 < negative_slope <= 1.0:
            # max(x, slope*x) == x*where(x>0, 1, slope) for slope in (0, 1],
            # multiply-by-1.0 being exact — one temp instead of two.  Slope
            # 0 is excluded: 0*inf = NaN would poison the maximum, where
            # the graph path's where() keeps the positive branch at x.
            x = self.data
            r = np.multiply(x, x.dtype.type(negative_slope), out=_unary_out(x))
            np.maximum(r, x, out=r)
            return Tensor._from_array(r)
        one = self.data.dtype.type(1.0)  # keep float32 graphs in float32
        factor = np.where(self.data > 0, one, self.data.dtype.type(negative_slope))
        if not _CTX.grad_enabled:
            return Tensor._from_array(np.multiply(self.data, factor, out=factor))

        def backward(out: Tensor) -> None:
            Tensor._accum(self, out.grad * factor, own=True)

        return Tensor._make(self.data * factor, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        if not _CTX.grad_enabled:
            return Tensor._from_array(np.clip(self.data, low, high, out=_unary_out(self.data)))
        mask = (self.data >= low) & (self.data <= high)

        def backward(out: Tensor) -> None:
            Tensor._accum(self, out.grad * mask, own=True)

        return Tensor._make(np.clip(self.data, low, high), (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        if not _CTX.grad_enabled:
            return Tensor._from_array(self.data.sum(axis=axis, keepdims=keepdims))

        def backward(out: Tensor) -> None:
            grad = out.grad
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis=axis)
            Tensor._accum(self, np.broadcast_to(grad, self.data.shape))

        return Tensor._make(self.data.sum(axis=axis, keepdims=keepdims), (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if not _CTX.grad_enabled:
            return Tensor._from_array(self.data.mean(axis=axis, keepdims=keepdims))
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))

        def backward(out: Tensor) -> None:
            grad = out.grad
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis=axis)
            # The division materialises a fresh array from the view.
            Tensor._accum(self, np.broadcast_to(grad, self.data.shape) / count, own=True)

        return Tensor._make(self.data.mean(axis=axis, keepdims=keepdims), (self,), backward)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        centered = self - self.mean(axis=axis, keepdims=True)
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        result = self.data.max(axis=axis, keepdims=keepdims)
        if not _CTX.grad_enabled:
            return Tensor._from_array(result)
        # Shape of the result with reduced axes kept as size-1: broadcasts
        # against self.data for every axis/keepdims combination, including
        # axis=None on multi-dim inputs where all axes are reduced.
        if keepdims:
            kept_shape = result.shape
        elif axis is None:
            kept_shape = (1,) * self.data.ndim
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            axes = {a % self.data.ndim for a in axes}
            kept_shape = tuple(1 if i in axes else s for i, s in enumerate(self.data.shape))

        def backward(out: Tensor) -> None:
            grad = out.grad.reshape(kept_shape)
            mask = (self.data == result.reshape(kept_shape)).astype(self.data.dtype)
            # Split gradient evenly among ties, matching subgradient choice.
            mask /= np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
            Tensor._accum(self, mask * grad, own=True)

        return Tensor._make(result, (self,), backward)

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return -((-self).max(axis=axis, keepdims=keepdims))

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        if not _CTX.grad_enabled:
            return Tensor._from_array(self.data.reshape(shape))

        def backward(out: Tensor) -> None:
            # out.grad is dead once this closure returns: adopt the reshaped
            # gradient when it is C-contiguous, the layout a copy would have.
            grad = out.grad.reshape(self.data.shape)
            Tensor._accum(self, grad, own=grad.flags.c_contiguous)

        return Tensor._make(self.data.reshape(shape), (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        axes = axes or None
        if not _CTX.grad_enabled:
            return Tensor._from_array(self.data.transpose(axes) if axes else self.data.T)

        if axes is None:
            inverse = None
        else:
            inverse = tuple(np.argsort(axes))

        def backward(out: Tensor) -> None:
            grad = out.grad.transpose(inverse) if inverse else out.grad.transpose()
            if grad.strides != self.data.strides:
                # Lay the gradient out like the input, so a channel-major
                # activation gets a channel-major gradient back.
                laid_out = np.empty_like(self.data, dtype=grad.dtype)
                np.copyto(laid_out, grad)
                grad = laid_out
            # out.grad is dead once this closure returns: adopt the view.
            Tensor._accum(self, grad, own=True)

        return Tensor._make(self.data.transpose(axes) if axes else self.data.T, (self,), backward)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(tuple(axes))

    def expand_dims(self, axis: int) -> "Tensor":
        if not _CTX.grad_enabled:
            return Tensor._from_array(np.expand_dims(self.data, axis))

        def backward(out: Tensor) -> None:
            Tensor._accum(self, np.squeeze(out.grad, axis=axis))

        return Tensor._make(np.expand_dims(self.data, axis), (self,), backward)

    def squeeze(self, axis: int) -> "Tensor":
        if not _CTX.grad_enabled:
            return Tensor._from_array(np.squeeze(self.data, axis=axis))

        def backward(out: Tensor) -> None:
            Tensor._accum(self, np.expand_dims(out.grad, axis=axis))

        return Tensor._make(np.squeeze(self.data, axis=axis), (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        if not _CTX.grad_enabled:
            return Tensor._from_array(self.data[index])

        def backward(out: Tensor) -> None:
            if not self.requires_grad:
                return
            grad = np.zeros_like(self.data)
            if _index_may_repeat(index):
                np.add.at(grad, index, out.grad)
            else:
                # Basic and boolean indexing select each element at most
                # once, so direct assignment replaces the (much slower)
                # np.add.at scatter.
                grad[index] = out.grad
            Tensor._accum(self, grad, own=True)

        return Tensor._make(self.data[index], (self,), backward)

    def pad(self, pad_width) -> "Tensor":
        """Zero-pad with numpy-style ``pad_width`` (list of (before, after))."""
        if not _CTX.grad_enabled:
            return Tensor._from_array(_padded(self.data, pad_width))
        slices = tuple(
            slice(before, before + dim) for (before, _after), dim in zip(pad_width, self.data.shape)
        )

        def backward(out: Tensor) -> None:
            Tensor._accum(self, out.grad[slices])

        return Tensor._make(np.pad(self.data, pad_width), (self,), backward)

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------
    def __matmul__(self, other) -> "Tensor":
        other = self._coerce_like(other)
        a, b = self.data, other.data
        if not _CTX.grad_enabled:
            return Tensor._from_array(np.matmul(a, b, out=_matmul_out(a, b)))

        def backward(out: Tensor) -> None:
            grad = out.grad
            if self.requires_grad:
                if b.ndim == 1:
                    ga = np.expand_dims(grad, -1) * b if a.ndim > 1 else np.outer(grad, b)
                    if a.ndim == 1:
                        ga = grad * b
                else:
                    gb_t = np.swapaxes(b, -1, -2)
                    ga = (np.expand_dims(grad, -2) if a.ndim == 1 else grad) @ gb_t
                    if a.ndim == 1:
                        ga = ga.reshape(a.shape[-1:]) if ga.ndim == 1 else ga[..., 0, :]
                Tensor._accum(self, ga, own=True)
            if other.requires_grad:
                if a.ndim == 1:
                    gb = np.outer(a, grad) if b.ndim == 2 else a * grad
                elif b.ndim == 1:
                    gb = np.swapaxes(a, -1, -2) @ np.expand_dims(grad, -1)
                    gb = gb[..., 0]
                    if gb.ndim > 1:
                        gb = gb.sum(axis=tuple(range(gb.ndim - 1)))
                else:
                    gb = np.swapaxes(a, -1, -2) @ grad
                Tensor._accum(other, gb, own=True)

        return Tensor._make(a @ b, (self, other), backward)

    def dot(self, other) -> "Tensor":
        return self @ other

    # ------------------------------------------------------------------
    # Factory helpers
    # ------------------------------------------------------------------
    @staticmethod
    def zeros(*shape, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape), requires_grad=requires_grad)


def _padded(data: np.ndarray, pad_width) -> np.ndarray:
    """Zero-pad into an arena buffer when one is active, else ``np.pad``.

    Written as full-fill + interior copy; identical values to ``np.pad``
    (zeros are exact) but the workspace is reusable across calls.  Only
    for C-contiguous inputs — ``np.pad`` preserves the input's memory
    order, and layout must match the graph path exactly (see the arena
    helper notes above).
    """
    arena = _CTX.arena
    if arena is None or not data.flags.c_contiguous:
        return np.pad(data, pad_width)
    out_shape = tuple(dim + before + after for (before, after), dim in zip(pad_width, data.shape))
    buffer = arena.take(out_shape, data.dtype)
    buffer.fill(0)
    interior = tuple(slice(before, before + dim) for (before, _), dim in zip(pad_width, data.shape))
    buffer[interior] = data
    return buffer


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Differentiable ``np.concatenate`` over a sequence of tensors."""
    tensors = list(tensors)
    datas = [t.data for t in tensors]
    if not _CTX.grad_enabled:
        return Tensor._from_array(np.concatenate(datas, axis=axis))
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)

    def backward(out: Tensor) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * out.grad.ndim
            index[axis] = slice(start, stop)
            Tensor._accum(tensor, out.grad[tuple(index)])

    return Tensor._make(np.concatenate(datas, axis=axis), tensors, backward)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Differentiable ``np.stack``."""
    tensors = list(tensors)
    if not _CTX.grad_enabled:
        return Tensor._from_array(np.stack([t.data for t in tensors], axis=axis))

    def backward(out: Tensor) -> None:
        grads = np.split(out.grad, len(tensors), axis=axis)
        for tensor, grad in zip(tensors, grads):
            Tensor._accum(tensor, np.squeeze(grad, axis=axis))

    return Tensor._make(np.stack([t.data for t in tensors], axis=axis), tensors, backward)


def take_permutation(x: Tensor, order: np.ndarray, axis: int) -> Tensor:
    """Differentiable ``np.take_along_axis(x, order, axis)`` for an
    ``order`` whose every slice along ``axis`` is a permutation of it
    (``order`` broadcasts over the other axes).

    A permutation repeats no index, so the backward is the gather by the
    inverse permutation, not a zero-fill and ``np.add.at`` scatter.
    """
    if not _CTX.grad_enabled:
        return Tensor._from_array(np.take_along_axis(x.data, order, axis))

    def backward(out: Tensor) -> None:
        inverse = np.argsort(order, axis=axis)
        Tensor._accum(x, np.take_along_axis(out.grad, inverse, axis), own=True)

    return Tensor._make(np.take_along_axis(x.data, order, axis), (x,), backward)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable ``np.where`` with a constant boolean condition."""
    a = Tensor._coerce(a)
    b = Tensor._coerce(b)
    condition = np.asarray(condition)
    if not _CTX.grad_enabled:
        return Tensor._from_array(np.where(condition, a.data, b.data))

    def backward(out: Tensor) -> None:
        Tensor._accum(a, out.grad * condition, own=True)
        Tensor._accum(b, out.grad * (~condition), own=True)

    return Tensor._make(np.where(condition, a.data, b.data), (a, b), backward)
