"""Thread-local execution state for the ``repro.nn`` substrate.

Three pieces of ambient state steer every op in :mod:`repro.nn.tensor`
and :mod:`repro.nn.ops`: whether gradients are being recorded
(:class:`~repro.nn.tensor.no_grad`), which
:class:`~repro.nn.arena.BufferArena` supplies no-grad op outputs
(:class:`~repro.nn.arena.use_arena`), and the default dtype new tensors
are created with (:class:`~repro.nn.tensor.dtype_scope`).  Historically
all three were process-global module variables, which made concurrent
inference from two threads silently corrupting — one thread's
``no_grad`` scope turned another thread's training forward graph-free,
and two predicts sharing one arena aliased each other's recycled
buffers.

:class:`ExecutionContext` fixes the whole class of races by backing the
state with ``threading.local``: every thread that touches ``repro.nn``
sees its own independent copy, initialised to the defaults (grad on, no
arena, float64).  The context managers above mutate only the calling
thread's copy, so ``no_grad``/``use_arena``/``dtype_scope`` scopes on
one thread are invisible to every other — the same per-thread grad-mode
discipline torch's autograd uses.

The serving layer builds directly on this: ``ForecastService`` worker
threads each predict under their own context (and their own per-thread
model arena, see :meth:`repro.nn.Module._inference_arena`), which is
what makes concurrent ``predict`` bitwise-equal to the sequential
answers.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["ExecutionContext", "execution_context"]

_FLOAT64 = np.dtype(np.float64)


class ExecutionContext(threading.local):
    """Per-thread ``repro.nn`` execution state.

    One process-wide instance exists (:func:`execution_context` returns
    it), but because the class subclasses ``threading.local`` every
    thread reading an attribute sees its own copy, lazily initialised to
    the defaults the first time the thread touches it.  Fields:

    * ``grad_enabled`` — whether ops record the autograd graph
      (toggled by :class:`~repro.nn.tensor.no_grad`);
    * ``arena`` — the :class:`~repro.nn.arena.BufferArena` supplying
      no-grad op outputs, or ``None`` for fresh allocations (toggled by
      :class:`~repro.nn.arena.use_arena`);
    * ``default_dtype`` — the dtype new tensors are created with
      (toggled by :func:`~repro.nn.tensor.set_default_dtype` /
      :class:`~repro.nn.tensor.dtype_scope`).

    Read it for introspection; mutate it through the public context
    managers rather than directly so scopes nest and restore correctly::

        from repro.nn import execution_context

        ctx = execution_context()
        assert ctx.grad_enabled and ctx.arena is None
    """

    def __init__(self) -> None:
        self.grad_enabled: bool = True
        self.arena = None  # BufferArena | None (untyped: avoids an import cycle)
        self.default_dtype: np.dtype = _FLOAT64


#: The process-wide context object; attribute access resolves per thread.
_CONTEXT = ExecutionContext()


def execution_context() -> ExecutionContext:
    """The calling thread's execution context.

    Always the same object, but its attributes resolve to thread-local
    storage — two threads reading ``execution_context().grad_enabled``
    see independent values.
    """
    return _CONTEXT
