"""Abstract arrays: symbolic shape/dtype values for static model checking.

An :class:`AbstractArray` stands in for an ``np.ndarray`` inside a model
forward pass.  It carries a *symbolic shape* (a tuple of
:class:`~repro.devtools.check.symdim.SymDim` / ``int``), a real numpy
``dtype``, and a shared :class:`Trace` of every operation it flows
through — but no element data.  Feeding one through ``repro.nn`` (via
the ``nn.as_input`` / ``__repro_coerce__`` / ``__conv*_transfer__``
hooks) executes the model's *shape and dtype semantics* without running
any numerics, which is what lets ``repro lint --check shapes`` verify
every registered model on paper-scale geometry in milliseconds.

Transfer rules come in three layers:

1. ``__array_ufunc__`` — a generic rule for every numpy ufunc:
   broadcast the input shapes, resolve the output dtype with the
   ufunc's own ``resolve_dtypes`` (so NEP 50 weak-scalar promotion and
   comparison→bool behave exactly like real numpy).  ``matmul`` gets a
   dedicated shape rule.
2. ``__array_function__`` — a registry of per-function handlers for the
   non-ufunc numpy API surface the models use (``concatenate``,
   ``pad``, reductions, …).  An *unhandled* function raises
   :class:`AbstractionError` naming it — that error message is the
   to-do list for extending the rule table.
3. Operator hooks — ``nn`` primitives whose semantics are too rich for
   numpy-level interpretation (``conv1d``/``conv2d``/ARIMA's per-series
   solver) consult ``__conv1d_transfer__`` / ``__conv2d_transfer__`` /
   ``__repro_map_series__`` on their input and use the summary we
   provide here.  The conv transfer rules intentionally restate the
   output-geometry formulas of the ``nn/kernels.py`` conv kernel; the
   shape-check test suite holds the two in agreement.

The recorded :class:`Trace` doubles as a machine-readable op-sequence
view of the forward pass (ROADMAP open item 5): each :class:`TraceOp`
is ``(op, input signatures, output signature, note)`` and serialises
via :meth:`TraceOp.to_dict`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .symdim import SymDim, dim_expr, expr_symbols

__all__ = [
    "AbstractionError",
    "AbstractArray",
    "Trace",
    "TraceOp",
    "abstract_input",
]


class AbstractionError(TypeError):
    """An operation has no abstract transfer rule (or forces real data).

    Raised when model code tries to do something the interpreter cannot
    follow symbolically — e.g. materialising an :class:`AbstractArray`
    through ``np.asarray`` (port the call site to ``nn.as_input``), or
    calling a numpy function with no registered handler (add one to
    ``abstract._HANDLERS``).
    """


def _sig(value) -> tuple[str, tuple[str, ...]]:
    """(dtype name, shape exprs) signature of an operand for the trace."""
    if isinstance(value, AbstractArray):
        return (value.dtype.name, tuple(dim_expr(d) for d in value.shape))
    if isinstance(value, (np.ndarray, np.generic)):
        return (value.dtype.name, tuple(repr(int(d)) for d in np.shape(value)))
    return (type(value).__name__, ())


@dataclass
class TraceOp:
    """One interpreted operation: the executor-interface seed record."""

    op: str
    inputs: tuple[tuple[str, tuple[str, ...]], ...]
    output: tuple[str, tuple[str, ...]]
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "op": self.op,
            "inputs": [
                {"dtype": dtype, "shape": list(shape)} for dtype, shape in self.inputs
            ],
            "output": {"dtype": self.output[0], "shape": list(self.output[1])},
            **({"note": self.note} if self.note else {}),
        }


@dataclass
class Trace:
    """Shared per-interpretation log of ops and broadcast coincidences."""

    ops: list[TraceOp] = field(default_factory=list)
    surprises: list[dict] = field(default_factory=list)

    def record(self, op: str, inputs, output, note: str = "") -> None:
        self.ops.append(
            TraceOp(op, tuple(_sig(v) for v in inputs), _sig(output), note)
        )

    def surprise(self, op: str, left, right) -> None:
        entry = {
            "op": op,
            "left": dim_expr(left),
            "right": dim_expr(right),
            "value": int(left),
        }
        if entry not in self.surprises:
            self.surprises.append(entry)

    def to_dict(self) -> dict:
        return {"ops": [op.to_dict() for op in self.ops]}


def _dtype_token(value):
    """Operand → resolve_dtypes token (dtype, or scalar type for NEP 50)."""
    if isinstance(value, AbstractArray):
        return value.dtype
    if isinstance(value, (np.ndarray, np.generic)):
        return value.dtype
    if isinstance(value, bool):
        return bool
    if isinstance(value, int):
        return int
    if isinstance(value, float):
        return float
    if isinstance(value, complex):
        return complex
    return np.asarray(value).dtype


def _result_dtype(ufunc: np.ufunc, operands) -> np.dtype:
    tokens = tuple(_dtype_token(v) for v in operands)
    try:
        resolved = ufunc.resolve_dtypes(tokens + (None,) * ufunc.nout)
        return resolved[ufunc.nin]
    except (TypeError, ValueError):
        return np.result_type(*tokens)


def _shape_of(value) -> tuple:
    if isinstance(value, AbstractArray):
        return value.shape
    return np.shape(value)


def _merge_dim(a, b, trace: Trace, op: str):
    """Broadcast one aligned dim pair, flagging symbolic coincidences."""
    if int(a) == 1:
        return b
    if int(b) == 1:
        return a
    if int(a) != int(b):
        raise ValueError(
            f"abstract broadcast mismatch in {op}: {dim_expr(a)} vs {dim_expr(b)}"
        )
    if (
        isinstance(a, SymDim)
        and isinstance(b, SymDim)
        and a.symbolic
        and b.symbolic
        and expr_symbols(a.expr) != expr_symbols(b.expr)
    ):
        # Dims built from different symbols that are equal by value on
        # this geometry only: a broadcast that works by numeric
        # coincidence, not by construction.  Same-symbol derivations
        # (e.g. a 'same'-padded conv output re-joining its input) are
        # equal wherever they coincide and are not flagged.
        trace.surprise(op, a, b)
    return a if isinstance(a, SymDim) and a.symbolic else b


def _broadcast_shapes(shapes, trace: Trace, op: str) -> tuple:
    rank = max((len(s) for s in shapes), default=0)
    out = []
    for i in range(rank):
        dim = 1
        for shape in shapes:
            j = i - (rank - len(shape))
            if j >= 0:
                dim = _merge_dim(dim, shape[j], trace, op)
        out.append(dim)
    return tuple(out)


def _matmul_shape(a: tuple, b: tuple, trace: Trace) -> tuple:
    if not a or not b:
        raise ValueError("matmul on 0-d operand")
    sq_a = sq_b = False
    if len(a) == 1:
        a, sq_a = (1,) + tuple(a), True
    if len(b) == 1:
        b, sq_b = tuple(b) + (1,), True
    if int(a[-1]) != int(b[-2]):
        raise ValueError(
            f"abstract matmul mismatch: ({', '.join(map(dim_expr, a))}) @ "
            f"({', '.join(map(dim_expr, b))})"
        )
    batch = _broadcast_shapes([a[:-2], b[:-2]], trace, "matmul")
    core = (a[-2], b[-1])
    shape = batch + core
    if sq_a:
        shape = shape[:-2] + shape[-1:]
    if sq_b:
        shape = shape[:-1]
    return shape


def _axis_tuple(axis, rank: int):
    if axis is None:
        return tuple(range(rank))
    if isinstance(axis, (int, np.integer)):
        axis = (int(axis),)
    return tuple(int(a) % rank for a in axis)


def _reduced_shape(shape: tuple, axis, keepdims: bool) -> tuple:
    axes = _axis_tuple(axis, len(shape))
    if keepdims:
        return tuple(1 if i in axes else d for i, d in enumerate(shape))
    return tuple(d for i, d in enumerate(shape) if i not in axes)


class _Flags:
    """Inert stand-in for ``ndarray.flags`` (never consulted on the
    no-grad / no-arena path the interpreter uses, but cheap to fake)."""

    writeable = False
    c_contiguous = True
    f_contiguous = False
    owndata = False


_FLAGS = _Flags()


class AbstractArray:
    """Duck-typed ndarray carrying symbolic shape + dtype, no data."""

    __slots__ = ("shape", "dtype", "trace")

    # Marker for hook sites (``getattr``-protocol, no isinstance import).
    __repro_abstract__ = True

    # Outrank ndarray in binop dispatch so ndarray defers to our
    # __array_ufunc__ instead of trying to coerce us.
    __array_priority__ = 1000.0

    def __init__(self, shape, dtype, trace: Trace | None = None):
        self.shape = tuple(shape)
        self.dtype = np.dtype(dtype)
        self.trace = trace if trace is not None else Trace()

    # -- basic array surface ------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        n = 1
        for d in self.shape:
            n *= int(d)
        return n

    @property
    def T(self) -> "AbstractArray":
        return self.transpose()

    @property
    def flags(self) -> _Flags:
        return _FLAGS

    def __len__(self) -> int:
        if not self.shape:
            raise TypeError("len() of unsized abstract array")
        return int(self.shape[0])

    def __repr__(self) -> str:
        dims = ", ".join(dim_expr(d) for d in self.shape)
        return f"AbstractArray(({dims}), {self.dtype.name})"

    def _like(self, shape, dtype=None) -> "AbstractArray":
        return AbstractArray(shape, self.dtype if dtype is None else dtype, self.trace)

    # -- materialisation barriers -------------------------------------
    def __array__(self, dtype=None, copy=None):
        raise AbstractionError(
            "np.asarray() on an AbstractArray would materialise data; "
            "port this call site to nn.as_input() so it stays abstract"
        )

    def __bool__(self) -> bool:
        raise AbstractionError(
            "truth value of an AbstractArray is undefined; data-dependent "
            "control flow cannot be checked abstractly"
        )

    def __iter__(self):
        raise AbstractionError("iteration over an AbstractArray is not abstract")

    def tolist(self):
        raise AbstractionError("AbstractArray.tolist() would materialise data")

    def __float__(self) -> float:
        # Scalar extraction in diagnostics/guards: concretise to 0.0 and
        # note it in the trace so the summary is auditable.
        self.trace.record("float", (self,), 0.0, note="concretised to 0.0")
        return 0.0

    def item(self) -> float:
        self.trace.record("item", (self,), 0.0, note="concretised to 0.0")
        return 0.0

    # -- nn hook protocol ---------------------------------------------
    def __repro_coerce__(self, dtype, default) -> "AbstractArray":
        """Mirror ``nn.tensor._as_array`` / ``Tensor._from_array`` dtype
        normalisation: explicit dtype wins; ints/bools promote to the
        context default; floats are recast only when the default is not
        float64."""
        target = self.dtype if dtype is None else np.dtype(dtype)
        default = np.dtype(default)
        if target.kind in "iub":
            target = default
        elif target.kind == "f" and default != np.float64 and target != default:
            target = default
        if target == self.dtype:
            return self
        out = self._like(self.shape, target)
        self.trace.record("coerce", (self,), out, note="tensor input coercion")
        return out

    def __conv2d_transfer__(self, weight, bias, stride, padding) -> "AbstractArray":
        """Output geometry and dtype of conv2d — must agree with the
        ``nn/kernels.py`` conv kernel behind :func:`repro.nn.conv2d`."""
        n, c_in, h, w = self.shape
        c_out, c_in_w, kh, kw = _shape_of(weight)
        if int(c_in) != int(c_in_w):
            raise ValueError(
                f"conv2d channel mismatch: input has {dim_expr(c_in)}, "
                f"weight expects {int(c_in_w)}"
            )
        sh, sw = (stride, stride) if isinstance(stride, int) else stride
        ph, pw = (padding, padding) if isinstance(padding, int) else padding
        out_h = (h + 2 * ph - kh) // sh + 1
        out_w = (w + 2 * pw - kw) // sw + 1
        if int(out_h) < 1 or int(out_w) < 1:
            raise ValueError(
                f"conv2d output collapsed: ({dim_expr(out_h)}, {dim_expr(out_w)})"
            )
        dtype = np.result_type(self.dtype, _dtype_token(weight))
        if bias is not None:
            dtype = np.result_type(dtype, _dtype_token(bias))
        out = self._like((n, c_out, out_h, out_w), dtype)
        operands = (self, weight) if bias is None else (self, weight, bias)
        self.trace.record("conv2d", operands, out)
        return out

    def __conv1d_transfer__(
        self, weight, bias, stride, padding, dilation
    ) -> "AbstractArray":
        n, c_in, length = self.shape
        c_out, c_in_w, k = _shape_of(weight)
        if int(c_in) != int(c_in_w):
            raise ValueError(
                f"conv1d channel mismatch: input has {dim_expr(c_in)}, "
                f"weight expects {int(c_in_w)}"
            )
        span = (int(k) - 1) * dilation + 1
        padded = length + 2 * padding
        if int(padded) < span:
            raise ValueError(
                f"conv1d receptive field {span} exceeds padded length "
                f"{dim_expr(padded)}"
            )
        out_l = (padded - span) // stride + 1
        dtype = np.result_type(self.dtype, _dtype_token(weight))
        if bias is not None:
            dtype = np.result_type(dtype, _dtype_token(bias))
        out = self._like((n, c_out, out_l), dtype)
        operands = (self, weight) if bias is None else (self, weight, bias)
        self.trace.record("conv1d", operands, out)
        return out

    def __repro_map_series__(self) -> "AbstractArray":
        """Summary of ``StatisticalBaseline.predict``: an irreducibly
        concrete per-series solve over an (R, T, C) window yielding an
        (R, C) float64 forecast."""
        r, _, c = self.shape
        out = AbstractArray((r, c), np.float64, self.trace)
        self.trace.record(
            "map_series", (self,), out, note="per-series statistical summary"
        )
        return out

    # -- ufunc protocol ------------------------------------------------
    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        trace = self.trace
        if method == "reduce":
            (operand,) = inputs
            shape = _reduced_shape(
                _shape_of(operand),
                kwargs.get("axis", 0),
                kwargs.get("keepdims", False),
            )
            dtype = kwargs.get("dtype")
            if dtype is None:
                token = _dtype_token(operand)
                try:
                    dtype = ufunc.resolve_dtypes(
                        (None, token, None), reduction=True
                    )[2]
                except (TypeError, ValueError):
                    dtype = token
            out = AbstractArray(shape, dtype, trace)
            trace.record(f"{ufunc.__name__}.reduce", (operand,), out)
            return out
        if method != "__call__":
            raise AbstractionError(
                f"no abstract transfer rule for ufunc method "
                f"{ufunc.__name__}.{method}"
            )
        if ufunc is np.matmul:
            a, b = inputs
            shape = _matmul_shape(_shape_of(a), _shape_of(b), trace)
        else:
            shape = _broadcast_shapes(
                [_shape_of(v) for v in inputs], trace, ufunc.__name__
            )
        dtype = _result_dtype(ufunc, inputs)
        out = AbstractArray(shape, dtype, trace)
        trace.record(ufunc.__name__, inputs, out)
        if ufunc.nout > 1:
            # e.g. divmod — both outputs share shape; dtypes may differ
            # but no model uses multi-output ufuncs, so mirror the first.
            return (out,) + tuple(
                AbstractArray(shape, dtype, trace) for _ in range(ufunc.nout - 1)
            )
        return out

    # -- array-function protocol --------------------------------------
    def __array_function__(self, func, types, args, kwargs):
        handler = _HANDLERS.get(func)
        if handler is None:
            raise AbstractionError(
                f"no abstract transfer rule for numpy function "
                f"{getattr(func, '__module__', 'numpy')}.{func.__name__}; "
                "register one in repro.devtools.check.abstract"
            )
        return handler(*args, **kwargs)

    # -- ndarray methods used by repro.nn and the models ---------------
    def astype(self, dtype, copy=True) -> "AbstractArray":
        out = self._like(self.shape, np.dtype(dtype))
        self.trace.record("astype", (self,), out, note="astype")
        return out

    def copy(self) -> "AbstractArray":
        return self._like(self.shape)

    def reshape(self, *shape) -> "AbstractArray":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        total = self.size
        known = 1
        infer = None
        for i, d in enumerate(shape):
            if int(d) == -1:
                if infer is not None:
                    raise ValueError("can only specify one unknown dimension")
                infer = i
            else:
                known *= int(d)
        dims = list(shape)
        if infer is not None:
            if known == 0 or total % known:
                raise ValueError(
                    f"cannot reshape abstract array of size {total} into "
                    f"shape {tuple(dim_expr(d) for d in shape)}"
                )
            dims[infer] = total // known
        elif known != total:
            raise ValueError(
                f"cannot reshape abstract array of shape "
                f"({', '.join(dim_expr(d) for d in self.shape)}) into "
                f"({', '.join(dim_expr(d) for d in shape)}): "
                f"{total} != {known}"
            )
        out = self._like(tuple(dims))
        self.trace.record("reshape", (self,), out)
        return out

    def transpose(self, *axes) -> "AbstractArray":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(range(self.ndim))[::-1]
        out = self._like(tuple(self.shape[int(a) % self.ndim] for a in axes))
        self.trace.record("transpose", (self,), out)
        return out

    def swapaxes(self, a: int, b: int) -> "AbstractArray":
        axes = list(range(self.ndim))
        axes[a % self.ndim], axes[b % self.ndim] = (
            axes[b % self.ndim],
            axes[a % self.ndim],
        )
        return self.transpose(*axes)

    def squeeze(self, axis=None) -> "AbstractArray":
        if axis is None:
            shape = tuple(d for d in self.shape if int(d) != 1)
        else:
            axes = _axis_tuple(axis, self.ndim)
            for a in axes:
                if int(self.shape[a]) != 1:
                    raise ValueError("cannot squeeze a non-unit dimension")
            shape = tuple(d for i, d in enumerate(self.shape) if i not in axes)
        out = self._like(shape)
        self.trace.record("squeeze", (self,), out)
        return out

    def ravel(self) -> "AbstractArray":
        return self.reshape(-1)

    flatten = ravel

    def _reduce(self, op: str, axis, keepdims, dtype=None) -> "AbstractArray":
        out = self._like(_reduced_shape(self.shape, axis, keepdims), dtype)
        self.trace.record(op, (self,), out)
        return out

    def mean(self, axis=None, keepdims=False, dtype=None):
        return self._reduce("mean", axis, keepdims, dtype)

    def sum(self, axis=None, keepdims=False, dtype=None):
        return self._reduce("sum", axis, keepdims, dtype)

    def max(self, axis=None, keepdims=False):
        return self._reduce("max", axis, keepdims)

    def min(self, axis=None, keepdims=False):
        return self._reduce("min", axis, keepdims)

    def var(self, axis=None, keepdims=False, ddof=0):
        return self._reduce("var", axis, keepdims)

    def std(self, axis=None, keepdims=False, ddof=0):
        return self._reduce("std", axis, keepdims)

    def clip(self, a_min=None, a_max=None):
        out = self._like(self.shape)
        self.trace.record("clip", (self,), out)
        return out

    # -- indexing ------------------------------------------------------
    def __getitem__(self, key) -> "AbstractArray":
        if not isinstance(key, tuple):
            key = (key,)
        n_explicit = sum(1 for k in key if k is not None and k is not Ellipsis)
        if n_explicit > self.ndim:
            raise IndexError(
                f"too many indices for abstract array of rank {self.ndim}"
            )
        if Ellipsis in key:
            i = key.index(Ellipsis)
            fill = (slice(None),) * (self.ndim - n_explicit)
            key = key[:i] + fill + key[i + 1 :]
        else:
            key = key + (slice(None),) * (self.ndim - n_explicit)
        shape: list = []
        axis = 0
        for k in key:
            if k is None:
                shape.append(1)
                continue
            dim = self.shape[axis]
            if isinstance(k, (int, np.integer, SymDim)):
                idx = int(k)
                if not -int(dim) <= idx < int(dim):
                    raise IndexError(
                        f"index {idx} out of bounds for axis of size {dim_expr(dim)}"
                    )
            elif isinstance(k, slice):
                start, stop, step = k.indices(int(dim))
                length = max(0, -(-(stop - start) // step) if step > 0 else
                             -(-(start - stop) // -step))
                if (start, stop, step) == (0, int(dim), 1):
                    shape.append(dim)  # full slice keeps the symbol
                else:
                    shape.append(length)
            elif isinstance(k, AbstractArray):
                raise AbstractionError(
                    "indexing with an AbstractArray (data-dependent gather) "
                    "has no abstract transfer rule"
                )
            elif isinstance(k, (np.ndarray, list)):
                arr = np.asarray(k)
                if arr.dtype == bool:
                    raise AbstractionError(
                        "boolean-mask indexing has a data-dependent result "
                        "shape and cannot be checked abstractly"
                    )
                shape.extend(arr.shape)
            else:
                raise AbstractionError(
                    f"unsupported abstract index component {k!r}"
                )
            axis += 1
        out = self._like(tuple(shape))
        self.trace.record("getitem", (self,), out)
        return out

    def expand_dims(self, axis: int) -> "AbstractArray":
        shape = list(self.shape)
        shape.insert(axis % (self.ndim + 1) if axis >= 0 else self.ndim + 1 + axis, 1)
        return self._like(tuple(shape))

    # -- arithmetic routes through the ufunc protocol ------------------
    def _binary(self, ufunc, other, reflexive=False):
        operands = (other, self) if reflexive else (self, other)
        try:
            return self.__array_ufunc__(ufunc, "__call__", *operands)
        except AbstractionError:
            raise
        except TypeError:
            return NotImplemented

    def __add__(self, other):
        return self._binary(np.add, other)

    def __radd__(self, other):
        return self._binary(np.add, other, reflexive=True)

    def __sub__(self, other):
        return self._binary(np.subtract, other)

    def __rsub__(self, other):
        return self._binary(np.subtract, other, reflexive=True)

    def __mul__(self, other):
        return self._binary(np.multiply, other)

    def __rmul__(self, other):
        return self._binary(np.multiply, other, reflexive=True)

    def __truediv__(self, other):
        return self._binary(np.divide, other)

    def __rtruediv__(self, other):
        return self._binary(np.divide, other, reflexive=True)

    def __pow__(self, other):
        return self._binary(np.power, other)

    def __rpow__(self, other):
        return self._binary(np.power, other, reflexive=True)

    def __matmul__(self, other):
        return self._binary(np.matmul, other)

    def __rmatmul__(self, other):
        return self._binary(np.matmul, other, reflexive=True)

    def __neg__(self):
        return self.__array_ufunc__(np.negative, "__call__", self)

    def __abs__(self):
        return self.__array_ufunc__(np.absolute, "__call__", self)

    def __lt__(self, other):
        return self._binary(np.less, other)

    def __le__(self, other):
        return self._binary(np.less_equal, other)

    def __gt__(self, other):
        return self._binary(np.greater, other)

    def __ge__(self, other):
        return self._binary(np.greater_equal, other)

    def __eq__(self, other):  # type: ignore[override]
        return self._binary(np.equal, other)

    def __ne__(self, other):  # type: ignore[override]
        return self._binary(np.not_equal, other)

    __hash__ = None  # type: ignore[assignment]


def abstract_input(shape, dtype, trace: Trace | None = None) -> AbstractArray:
    """Build the seed abstract input for one interpretation run."""
    return AbstractArray(shape, dtype, trace)


# ---------------------------------------------------------------------
# __array_function__ handlers (layer 2 of the transfer-rule table).
# Each mirrors the numpy function's shape/dtype semantics; none touch
# element data.  Keep alphabetised by numpy name within each group.
# ---------------------------------------------------------------------

_HANDLERS: dict = {}


def _handles(*funcs):
    def register(impl):
        for func in funcs:
            _HANDLERS[func] = impl
        return impl

    return register


def _abstract_operands(values):
    return [v for v in values if isinstance(v, AbstractArray)]


def _shared_trace(values) -> Trace:
    return _abstract_operands(values)[0].trace


@_handles(np.concatenate)
def _concatenate(arrays, axis=0, **kwargs):
    trace = _shared_trace(arrays)
    shapes = [_shape_of(a) for a in arrays]
    rank = len(shapes[0])
    axis = int(axis) % rank
    for s in shapes[1:]:
        if len(s) != rank:
            raise ValueError("concatenate: rank mismatch")
        for i in range(rank):
            if i != axis and int(s[i]) != int(shapes[0][i]):
                raise ValueError(
                    f"concatenate: shape mismatch on axis {i}: "
                    f"{dim_expr(shapes[0][i])} vs {dim_expr(s[i])}"
                )
    joined = shapes[0][axis]
    for s in shapes[1:]:
        joined = joined + s[axis]
    shape = shapes[0][:axis] + (joined,) + shapes[0][axis + 1 :]
    dtype = np.result_type(*[_dtype_token(a) for a in arrays])
    out = AbstractArray(shape, dtype, trace)
    trace.record("concatenate", tuple(arrays), out)
    return out


@_handles(np.stack)
def _stack(arrays, axis=0, **kwargs):
    arrays = list(arrays)
    trace = _shared_trace(arrays)
    base = _shape_of(arrays[0])
    for a in arrays[1:]:
        s = _shape_of(a)
        if len(s) != len(base) or any(int(x) != int(y) for x, y in zip(s, base)):
            raise ValueError("stack: all input arrays must have the same shape")
    axis = int(axis) % (len(base) + 1)
    shape = base[:axis] + (len(arrays),) + base[axis:]
    dtype = np.result_type(*[_dtype_token(a) for a in arrays])
    out = AbstractArray(shape, dtype, trace)
    trace.record("stack", tuple(arrays), out)
    return out


@_handles(np.where)
def _where(condition, x=None, y=None):
    if x is None or y is None:
        raise AbstractionError(
            "np.where(condition) has a data-dependent result shape"
        )
    operands = (condition, x, y)
    trace = _shared_trace(operands)
    shape = _broadcast_shapes([_shape_of(v) for v in operands], trace, "where")
    dtype = np.result_type(_dtype_token(x), _dtype_token(y))
    out = AbstractArray(shape, dtype, trace)
    trace.record("where", operands, out)
    return out


@_handles(np.pad)
def _pad(array, pad_width, mode="constant", **kwargs):
    trace = array.trace
    rank = array.ndim
    if isinstance(pad_width, int):
        widths = [(pad_width, pad_width)] * rank
    else:
        widths = [tuple(w) if not isinstance(w, int) else (w, w) for w in pad_width]
        if len(widths) == 1:
            widths = widths * rank
    shape = tuple(
        d + int(before) + int(after)
        for d, (before, after) in zip(array.shape, widths)
    )
    out = array._like(shape)
    trace.record("pad", (array,), out)
    return out


@_handles(np.expand_dims)
def _expand_dims(a, axis):
    return a.expand_dims(axis)


@_handles(np.squeeze)
def _squeeze(a, axis=None):
    return a.squeeze(axis)


@_handles(np.broadcast_to)
def _broadcast_to(array, shape, **kwargs):
    shape = tuple(shape)
    # Validate compatibility (trailing alignment, 1s stretch).
    src = array.shape
    for i in range(1, len(src) + 1):
        s, t = src[-i], shape[-i]
        if int(s) != 1 and int(s) != int(t):
            raise ValueError(
                f"cannot broadcast ({', '.join(map(dim_expr, src))}) to "
                f"({', '.join(map(dim_expr, shape))})"
            )
    out = array._like(shape)
    array.trace.record("broadcast_to", (array,), out)
    return out


def _np_reduction(name):
    def impl(a, axis=None, keepdims=False, **kwargs):
        return a._reduce(name, axis, keepdims, kwargs.get("dtype"))

    return impl


_HANDLERS[np.mean] = _np_reduction("mean")
_HANDLERS[np.sum] = _np_reduction("sum")
_HANDLERS[np.max] = _np_reduction("max")
_HANDLERS[np.amax] = _np_reduction("max")
_HANDLERS[np.min] = _np_reduction("min")
_HANDLERS[np.amin] = _np_reduction("min")
_HANDLERS[np.var] = _np_reduction("var")
_HANDLERS[np.std] = _np_reduction("std")
_HANDLERS[np.prod] = _np_reduction("prod")


@_handles(np.clip)
def _clip(a, a_min=None, a_max=None, **kwargs):
    return a.clip(a_min, a_max)


@_handles(np.abs, np.absolute)
def _absolute(a, **kwargs):
    return abs(a)


def _like_factory(name, fill_dtype=None):
    def impl(a, dtype=None, **kwargs):
        out = a._like(a.shape, dtype)
        a.trace.record(name, (a,), out)
        return out

    return impl


_HANDLERS[np.zeros_like] = _like_factory("zeros_like")
_HANDLERS[np.ones_like] = _like_factory("ones_like")
_HANDLERS[np.empty_like] = _like_factory("empty_like")


@_handles(np.full_like)
def _full_like(a, fill_value, dtype=None, **kwargs):
    out = a._like(a.shape, dtype)
    a.trace.record("full_like", (a,), out)
    return out


@_handles(np.swapaxes)
def _swapaxes(a, axis1, axis2):
    return a.swapaxes(axis1, axis2)


@_handles(np.transpose)
def _transpose(a, axes=None):
    return a.transpose() if axes is None else a.transpose(*axes)


@_handles(np.reshape)
def _reshape(a, shape, **kwargs):
    return a.reshape(shape)


@_handles(np.ravel)
def _ravel(a, **kwargs):
    return a.ravel()


@_handles(np.repeat)
def _repeat(a, repeats, axis=None):
    if not isinstance(repeats, (int, np.integer)):
        raise AbstractionError("np.repeat with per-element counts is not abstract")
    if axis is None:
        out = a._like((a.size * int(repeats),))
    else:
        shape = list(a.shape)
        shape[axis] = shape[axis] * int(repeats)
        out = a._like(tuple(shape))
    a.trace.record("repeat", (a,), out)
    return out


@_handles(np.tile)
def _tile(a, reps):
    reps = (reps,) if isinstance(reps, (int, np.integer)) else tuple(reps)
    rank = max(a.ndim, len(reps))
    shape = (1,) * (rank - a.ndim) + a.shape
    reps = (1,) * (rank - len(reps)) + reps
    out = a._like(tuple(d * int(r) for d, r in zip(shape, reps)))
    a.trace.record("tile", (a,), out)
    return out


@_handles(np.linalg.norm)
def _norm(x, ord=None, axis=None, keepdims=False):
    if axis is None:
        shape: tuple = () if not keepdims else (1,) * x.ndim
        out = x._like(shape)
    else:
        out = x._reduce("norm", axis, keepdims)
        return out
    x.trace.record("norm", (x,), out)
    return out


@_handles(np.diff)
def _diff(a, n=1, axis=-1):
    shape = list(a.shape)
    shape[axis] = shape[axis] - int(n)
    out = a._like(tuple(shape))
    a.trace.record("diff", (a,), out)
    return out


@_handles(np.ascontiguousarray)
def _ascontiguousarray(a, dtype=None, **kwargs):
    return a if dtype is None else a.astype(dtype)


@_handles(np.shape)
def _np_shape(a):
    return a.shape


@_handles(np.ndim)
def _np_ndim(a):
    return a.ndim


@_handles(np.size)
def _np_size(a, axis=None):
    return a.size if axis is None else int(a.shape[axis])


@_handles(np.moveaxis)
def _moveaxis(a, source, destination):
    src = [source] if isinstance(source, (int, np.integer)) else list(source)
    dst = [destination] if isinstance(destination, (int, np.integer)) else list(
        destination
    )
    src = [int(s) % a.ndim for s in src]
    dst = [int(d) % a.ndim for d in dst]
    order = [i for i in range(a.ndim) if i not in src]
    for d, s in sorted(zip(dst, src)):
        order.insert(d, s)
    return a.transpose(*order)


@_handles(np.split)
def _split(a, indices_or_sections, axis=0):
    if not isinstance(indices_or_sections, (int, np.integer)):
        raise AbstractionError("np.split with explicit indices is not abstract")
    sections = int(indices_or_sections)
    dim = a.shape[axis % a.ndim]
    if int(dim) % sections:
        raise ValueError("array split does not result in an equal division")
    shape = list(a.shape)
    shape[axis % a.ndim] = dim // sections
    return [a._like(tuple(shape)) for _ in range(sections)]
