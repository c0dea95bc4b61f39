"""Buffer-reuse arena for graph-free inference.

The autograd hot path allocates a fresh numpy array for every op output.
During training those buffers must survive until the backward pass, but
under :class:`~repro.nn.tensor.no_grad` each intermediate dies as soon as
its consumer has read it — so inference can recycle a small pool of
preallocated buffers instead of paying allocator traffic (and, for
multi-megabyte conv workspaces, kernel page faults) on every call.

Usage::

    arena = BufferArena()
    with no_grad(), use_arena(arena):
        prediction = model.forward(window).data.copy()  # copy before exit!

Inside the scope, the no-grad fast paths in :mod:`repro.nn.tensor` and
:mod:`repro.nn.ops` allocate op outputs via :meth:`BufferArena.take`.
Buffers are keyed by ``(shape, dtype)`` and stay *in use* until the scope
exits, so two same-shaped tensors alive in one forward pass never alias.
On exit every buffer returns to the free pool; re-entering the scope (the
next ``predict`` call) reuses them.  Steady-state memory is therefore
bounded by one call's peak working set per distinct shape.

Two contracts follow from the recycling:

* anything that must survive the scope (the returned prediction) must be
  copied out before the scope exits — the model ``predict`` helpers do;
* the *active-arena* state is thread-local (it lives in the
  :class:`~repro.nn.context.ExecutionContext`), so every thread scopes
  its own arena independently — but a single :class:`BufferArena`
  instance is not itself thread-safe: never activate one arena on two
  threads at once (give each thread its own, the way
  :meth:`repro.nn.Module._inference_arena` does).
"""

from __future__ import annotations

import numpy as np

from .context import _CONTEXT as _CTX

__all__ = ["BufferArena", "use_arena", "active_arena", "request"]


class BufferArena:
    """A ``(shape, dtype)``-keyed pool of reusable numpy buffers."""

    __slots__ = ("_free", "_in_use", "_active", "hits", "misses")

    def __init__(self) -> None:
        self._free: dict[tuple, list[np.ndarray]] = {}
        self._in_use: list[np.ndarray] = []
        self._active = 0  # live use_arena scopes (outermost per thread)
        self.hits = 0
        self.misses = 0

    @property
    def in_active_scope(self) -> bool:
        """Whether some thread currently has this arena activated.

        Consolidation and handoff (:meth:`absorb`,
        :meth:`repro.nn.Module.release_arena`) skip active arenas — an
        arena inside a live ``use_arena`` scope is being written to and
        must not change hands.
        """
        return self._active > 0

    def take(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        """Hand out an uninitialised buffer; it stays unavailable for reuse
        until :meth:`release_all` (normally the end of the ``use_arena``
        scope that allocated it)."""
        # Normalise the key through np.dtype: callers pass scalar types
        # (np.float32), strings and dtype instances interchangeably, and
        # release_all re-keys by buffer.dtype — without normalisation a
        # scalar-type key never re-hits its own released buffers and the
        # free pool grows without bound.
        key = (shape, np.dtype(dtype))
        pool = self._free.get(key)
        if pool:
            buffer = pool.pop()
            self.hits += 1
        else:
            buffer = np.empty(shape, key[1])
            self.misses += 1
        self._in_use.append(buffer)
        return buffer

    def release_all(self) -> None:
        """Return every outstanding buffer to the free pools."""
        for buffer in self._in_use:
            self._free.setdefault((buffer.shape, buffer.dtype), []).append(buffer)
        self._in_use.clear()

    def absorb(self, other: "BufferArena") -> "BufferArena":
        """Move every buffer pooled in ``other`` into this arena's free
        pools (emptying ``other``), and fold in its hit/miss counters.

        Used when per-thread arenas are consolidated for handoff (see
        :meth:`repro.nn.Module.release_arena`): the merged arena carries
        the union of warm buffers, so whichever thread adopts it re-hits
        every shape any of the source threads had warmed.  Returns
        ``self``.  Raises ``ValueError`` if ``other`` is inside a live
        ``use_arena`` scope — its buffers are mid-write on another
        thread and absorbing them would alias live data.
        """
        if other is self:
            return self
        if other.in_active_scope:
            raise ValueError("cannot absorb an arena that is active in a use_arena scope")
        other.release_all()
        for key, pool in other._free.items():
            self._free.setdefault(key, []).extend(pool)
        other._free.clear()
        self.hits += other.hits
        self.misses += other.misses
        other.hits = other.misses = 0
        return self

    def clear(self) -> None:
        """Drop all pooled buffers (frees the memory)."""
        self._free.clear()
        self._in_use.clear()

    @property
    def num_buffers(self) -> int:
        return len(self._in_use) + sum(len(pool) for pool in self._free.values())

    @property
    def nbytes(self) -> int:
        """Total bytes currently held (in use + free pools)."""
        total = sum(buffer.nbytes for buffer in self._in_use)
        return total + sum(b.nbytes for pool in self._free.values() for b in pool)

    def stats(self) -> dict:
        """A snapshot of the arena's holdings and traffic.

        Returns ``{"buffers", "nbytes", "hits", "misses",
        "bytes_by_dtype"}`` where ``bytes_by_dtype`` maps dtype name to
        the bytes held in that dtype (in-use + free) — the footprint of a
        model's inference working set::

            with no_grad(), use_arena(arena):
                model.predict(window)
            print(arena.stats()["bytes_by_dtype"])
        """
        by_dtype: dict[str, int] = {}
        for buffer in self._in_use:
            name = buffer.dtype.name
            by_dtype[name] = by_dtype.get(name, 0) + buffer.nbytes
        for pool in self._free.values():
            for buffer in pool:
                name = buffer.dtype.name
                by_dtype[name] = by_dtype.get(name, 0) + buffer.nbytes
        return {
            "buffers": self.num_buffers,
            "nbytes": self.nbytes,
            "hits": self.hits,
            "misses": self.misses,
            "bytes_by_dtype": by_dtype,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BufferArena(buffers={self.num_buffers}, bytes={self.nbytes}, "
            f"hits={self.hits}, misses={self.misses})"
        )


def active_arena() -> BufferArena | None:
    """The arena currently supplying no-grad op outputs on the calling
    thread, if any."""
    return _CTX.arena


def request(shape: tuple[int, ...], dtype) -> np.ndarray | None:
    """Arena buffer for an op output, or None to let numpy allocate.

    ``None`` is exactly what ufunc ``out=`` expects when no arena is
    active, so call sites can pass the result straight through.
    """
    arena = _CTX.arena
    return arena.take(shape, dtype) if arena is not None else None


class use_arena:
    """Context manager activating ``arena`` for no-grad op outputs on the
    calling thread.

    On exit the thread's previous arena (usually None) is restored and
    every buffer handed out inside the scope returns to the free pool.
    Re-entering with the *same* arena nests safely: the inner scope
    leaves release to the outermost owner.  The active-arena slot is
    thread-local, so concurrent ``use_arena`` scopes on different
    threads — each with its own arena — never see each other.
    """

    def __init__(self, arena: BufferArena):
        self._arena = arena
        self._prev: BufferArena | None = None

    def __enter__(self) -> BufferArena:
        self._prev = _CTX.arena
        _CTX.arena = self._arena
        if self._arena is not None and self._prev is not self._arena:
            # Outermost scope marks the arena active so consolidation /
            # handoff (Module.release_arena, dead-thread harvesting)
            # never steals an arena that is mid-forward on some thread.
            self._arena._active += 1
        return self._arena

    def __exit__(self, *exc) -> None:
        _CTX.arena = self._prev
        if self._arena is not None and self._prev is not self._arena:
            self._arena.release_all()
            self._arena._active -= 1
