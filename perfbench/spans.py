"""In-memory spans around the program's public seams, for traced runs.

A span is ``[name, start, end, parent, thread, note]``: ``start``/``end``
are ``time.perf_counter()`` seconds (CLOCK_MONOTONIC on Linux, so spans
from a traced server process line up with the load generator's clock),
``parent`` is the enclosing span on the same thread (``None`` for a
root) and ``note`` is an optional per-call number such as a conv's FLOP
count.  Spans stay in memory until the run ends.

:meth:`Tracer.wrap` replaces one attribute -- a method on one instance,
a function on a module, a method or classmethod on a class -- with a
timing wrapper and remembers how to undo it, so the untraced and traced
passes of one run execute the same program.  ``Module.__call__``
dispatches to ``self.forward``, so a wrapper set on a module instance
sees every call.
"""

from __future__ import annotations

import inspect
import threading
import time

_ABSENT = object()


class Tracer:
    """Records spans from every thread of one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._undo: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args=(), kwargs=None, note=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``.

        ``note(args, kwargs)``, when given, computes the span's note.
        """
        kwargs = kwargs or {}
        stack = self._stack()
        span = [name, 0.0, 0.0, stack[-1] if stack else None, threading.get_ident(), None]
        if note is not None:
            span[5] = note(args, kwargs)
        stack.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        """Time every call of ``owner.attr`` as a span named ``name``.

        On a class, a plain method stays a method (the wrapper receives
        ``self`` first, and so does ``note``); a classmethod or
        staticmethod is replaced by a staticmethod around its bound form.
        """
        target = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            return self.call(name, target, args, kwargs, note)

        if isinstance(owner, type) and not inspect.isfunction(inspect.getattr_static(owner, attr)):
            wrapper = staticmethod(wrapper)
        self.replace(owner, attr, wrapper)

    def wrap_iterator(self, owner, attr: str, name: str) -> None:
        """Time each ``next()`` on the iterator that ``owner.attr(...)`` returns."""
        target = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            iterator = target(*args, **kwargs)
            while True:
                try:
                    item = self.call(name, next, (iterator,))
                except StopIteration:
                    return
                yield item

        self.replace(owner, attr, wrapper)

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`restore`."""
        saved = vars(owner).get(attr, _ABSENT)
        setattr(owner, attr, value)
        self._undo.append((owner, attr, saved))

    def restore(self) -> None:
        """Undo every :meth:`replace`, newest first."""
        while self._undo:
            owner, attr, saved = self._undo.pop()
            if saved is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    def export(self) -> list[list]:
        """Spans as JSON-safe lists, ``parent`` given as an index (-1 = root)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [
            [name, start, end, index[id(parent)] if parent is not None else -1, thread, note]
            for name, start, end, parent, thread, note in self.spans
        ]


def covered_share(spans: list[list], start: float, end: float) -> float:
    """Share of ``[start, end]`` that at least one root span covers."""
    intervals = sorted(
        (max(s, start), min(e, end))
        for _name, s, e, parent, _thread, _note in spans
        if parent < 0 and e > start and s < end
    )
    covered = 0.0
    cursor = start
    for s, e in intervals:
        if e > cursor:
            covered += e - max(s, cursor)
            cursor = e
    return covered / (end - start) if end > start else 0.0
