"""Buffer-reuse arena for graph-free inference.

The autograd hot path allocates a fresh numpy array for every op output.
During training those buffers must survive until the backward pass, but
under :class:`~repro.nn.tensor.no_grad` each intermediate dies as soon as
its consumer has read it — so inference can recycle a small pool of
preallocated memory instead of paying allocator traffic (and, for
multi-megabyte conv workspaces, kernel page faults) on every call.

Usage::

    arena = BufferArena()
    with no_grad(), use_arena(arena):
        prediction = model.forward(window).data.copy()  # copy before exit!

Inside the scope, the no-grad fast paths in :mod:`repro.nn.tensor` and
:mod:`repro.nn.ops` allocate op outputs via :meth:`BufferArena.take`.
The arena pools flat ``uint8`` byte *slabs*, not typed arrays: ``take``
hands out a C-contiguous typed view at offset 0 of the smallest free slab
that fits, whatever the requested shape and dtype.  A slab stays *in use*
while anything outside the arena still references it — every view,
reshape or :class:`~repro.nn.Tensor` of a handed-out buffer holds its
slab through numpy's ``.base`` — so two live tensors never alias.  When
no free slab fits, ``take`` first reclaims every in-use slab that only
the arena still references (an intermediate whose consumers have run),
and allocates a new slab only if none of those fits either.  On scope
exit every slab returns to the free list; the next ``predict`` call
reuses them.  Steady-state memory is therefore bounded by one call's
peak *live* bytes (plus best-fit slack), not by the bytes each distinct
shape ever needed.

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

import bisect
import math
import sys

import numpy as np

from .context import _CONTEXT as _CTX

__all__ = ["BufferArena", "use_arena", "active_arena", "request"]


# What ``sys.getrefcount(in_use[index])`` in ``_reclaim`` reads for a slab
# nothing outside the arena holds: the ``_in_use`` list entry plus
# getrefcount's own argument.
_ARENA_REFS = 2


class BufferArena:
    """A best-fit pool of byte slabs that hands out typed numpy buffers.

    Liveness is judged by reference count (``sys.getrefcount``) on the
    slab, the array that owns the memory, which makes the mid-scope
    reclamation CPython-specific: an interpreter without reference
    counting would need explicit release instead.  CPython 3.11 and
    3.12, the versions CI runs, qualify.  Reclamation runs only on a
    miss, so the hit path is a free-list search and nothing more.
    """

    __slots__ = ("_free", "_in_use", "_active", "hits", "misses")

    def __init__(self) -> None:
        self._free: list[np.ndarray] = []  # free slabs, ascending size
        self._in_use: list[np.ndarray] = []  # slabs handed out since release
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
        """Hand out an uninitialised ``shape``/``dtype`` buffer.

        Its slab returns to the free list when a later miss finds the
        buffer (and every view of it) unreferenced, or at
        :meth:`release_all` (normally the end of the ``use_arena``
        scope), whichever comes first.  A reused slab counts as a hit, a
        newly allocated one as a miss.
        """
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        slab = self._pop_fit(nbytes)
        if slab is None:
            self._reclaim()
            slab = self._pop_fit(nbytes)
        if slab is None:
            slab = np.empty(nbytes, np.uint8)
            self.misses += 1
        else:
            self.hits += 1
        self._in_use.append(slab)
        return np.ndarray(shape, dtype, buffer=slab)

    def _pop_fit(self, nbytes: int) -> np.ndarray | None:
        """Remove and return the smallest free slab of at least ``nbytes``."""
        index = bisect.bisect_left(self._free, nbytes, key=len)
        return self._free.pop(index) if index < len(self._free) else None

    def _reclaim(self) -> None:
        """Free every in-use slab that nothing outside the arena references."""
        in_use = self._in_use
        for index in range(len(in_use) - 1, -1, -1):
            if sys.getrefcount(in_use[index]) <= _ARENA_REFS:
                bisect.insort(self._free, in_use.pop(index), key=len)

    def release_all(self) -> None:
        """Return every outstanding slab to the free list."""
        self._free.extend(self._in_use)
        self._free.sort(key=len)
        self._in_use.clear()

    def absorb(self, other: "BufferArena") -> "BufferArena":
        """Move every slab pooled in ``other`` into this arena's free list
        (emptying ``other``), and fold in its hit/miss counters.

        Used when per-thread arenas are consolidated for handoff (see
        :meth:`repro.nn.Module.release_arena`): the merged arena carries
        the union of warm slabs for whichever thread adopts it.  Returns
        ``self``.  Raises ``ValueError`` if ``other`` is inside a live
        ``use_arena`` scope — its buffers are mid-write on another
        thread and absorbing them would alias live data.
        """
        if other is self:
            return self
        if other.in_active_scope:
            raise ValueError("cannot absorb an arena that is active in a use_arena scope")
        other.release_all()
        self._free.extend(other._free)
        self._free.sort(key=len)
        other._free.clear()
        self.hits += other.hits
        self.misses += other.misses
        other.hits = other.misses = 0
        return self

    def clear(self) -> None:
        """Drop all pooled slabs (frees the memory)."""
        self._free.clear()
        self._in_use.clear()

    @property
    def num_buffers(self) -> int:
        """Slabs held (in use + free)."""
        return len(self._in_use) + len(self._free)

    @property
    def nbytes(self) -> int:
        """Total bytes currently held (in use + free)."""
        return sum(map(len, self._in_use)) + sum(map(len, self._free))

    def stats(self) -> dict:
        """A snapshot of the arena's holdings and traffic.

        Returns ``{"buffers", "nbytes", "hits", "misses"}`` — the slab
        count, the bytes they hold (the footprint of a model's inference
        working set) and the take traffic::

            with no_grad(), use_arena(arena):
                model.predict(window)
            print(arena.stats()["nbytes"])
        """
        return {
            "buffers": self.num_buffers,
            "nbytes": self.nbytes,
            "hits": self.hits,
            "misses": self.misses,
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
