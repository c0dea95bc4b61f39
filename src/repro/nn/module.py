"""Module/Parameter machinery, mirroring the torch.nn.Module contract.

A :class:`Module` discovers parameters and child modules through attribute
assignment, supports train/eval mode switching (needed for dropout), and
exposes ``state_dict``/``load_state_dict`` for serialization, covering
parameters and registered buffers (non-trainable state such as batch-norm
running statistics).
"""

from __future__ import annotations

import threading
from typing import Iterator

import numpy as np

from .arena import BufferArena
from .tensor import Tensor

__all__ = ["Parameter", "Module", "ModuleList", "Sequential"]


class Parameter(Tensor):
    """A tensor registered as a trainable parameter of a module."""

    def __init__(self, data, name: str = ""):
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all neural network modules.

    Subclasses implement :meth:`forward`; calling the module invokes it.
    Parameters and submodules assigned as attributes are registered
    automatically.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "_buffers", [])
        object.__setattr__(self, "training", True)

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Parameter traversal
    # ------------------------------------------------------------------
    def parameters(self) -> Iterator[Parameter]:
        """Yield all parameters of this module and its descendants."""
        for _name, param in self.named_parameters():
            yield param

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def register_buffer(self, name: str, value) -> None:
        """Set ``name`` to the array ``value`` and save it with the state.

        Buffers are read by attribute name, so the owner may update them
        in place or reassign them.  :meth:`load_state_dict` restores them
        in place when the state carries them and leaves them untouched
        when it does not.
        """
        if name not in self._buffers:
            self._buffers.append(name)
        object.__setattr__(self, name, np.asarray(value))

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        for name in self._buffers:
            yield (f"{prefix}{name}", getattr(self, name))
        for name, module in self._modules.items():
            yield from module.named_buffers(prefix=f"{prefix}{name}.")

    def modules(self) -> Iterator["Module"]:
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def num_parameters(self) -> int:
        """Total scalar parameter count (useful for capacity matching)."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    # Train / eval
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            object.__setattr__(module, "training", mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.grad = None

    def _arena_state(self) -> dict:
        state = self.__dict__.get("_arenas")
        if state is None:
            # One shared mutable slot; dict.setdefault is atomic under the
            # GIL so two threads racing the first predict agree on one
            # state dict.  (The plain-get fast path above keeps the dict/
            # Lock construction off every subsequent predict call.)
            state = self.__dict__.setdefault(
                "_arenas", {"lock": threading.Lock(), "by_thread": {}, "spares": []}
            )
        return state

    def _inference_arena(self) -> BufferArena:
        """The calling thread's buffer arena for graph-free inference.

        Created on first use and reused across every subsequent predict
        call *from that thread*.  Each thread gets a private arena —
        a :class:`BufferArena` must never be active on two threads at
        once — so concurrent ``predict`` calls on one module are safe
        and bitwise-equal to their sequential answers.  Arenas adopted
        via :meth:`adopt_arena` (and arenas abandoned by finished
        threads) sit in a spare pool that new threads claim before
        allocating fresh, so warm buffers keep circulating.
        """
        state = self._arena_state()
        by_thread = state["by_thread"]
        # Keyed by the Thread *object*, not the ident: idents are reused
        # after a thread dies, so an ident key could hand a dead thread's
        # arena to its ident-successor while a concurrent harvest (working
        # from a momentarily stale liveness snapshot) steals it — object
        # identity is never reused while the entry exists.
        me = threading.current_thread()
        arena = by_thread.get(me)
        if arena is None:
            with state["lock"]:
                # Harvest arenas of threads that have finished, reclaiming
                # their warm buffers for new threads.  The in_active_scope
                # guard additionally shields any thread caught between
                # claiming its arena and activating it.
                dead = [
                    t
                    for t, candidate in by_thread.items()
                    if not t.is_alive() and not candidate.in_active_scope
                ]
                for thread_dead in dead:
                    state["spares"].append(by_thread.pop(thread_dead))
                arena = state["spares"].pop() if state["spares"] else BufferArena()
                by_thread[me] = arena
        return arena

    def adopt_arena(self, arena: BufferArena) -> "Module":
        """Hand this module a (possibly pre-warmed) inference arena.

        The arena joins the module's spare pool and is claimed by the
        next thread that needs one (threads already holding a private
        arena keep it), so a serving pool can pass the byte slabs of an
        evicted model to its replacement, which reuses them instead of
        allocating (see :class:`repro.serving.ModelPool`).  Returns
        ``self``.
        """
        state = self._arena_state()
        with state["lock"]:
            state["spares"].append(arena)
        return self

    def release_arena(self) -> BufferArena | None:
        """Detach and return this module's inference arena(s), if any.

        Consolidates (via :meth:`BufferArena.absorb`) only the arenas
        that are quiescent *by construction*: the calling thread's own
        arena, arenas of threads that no longer exist, and unclaimed
        spares.  An arena mapped to any *other live* thread may enter a
        ``use_arena`` scope at any moment (there is no lock spanning the
        thread's claim and its activation), so those are left in place
        untouched — a pool eviction racing a serving worker never steals
        or aliases a live arena; that worker's warm buffers are simply
        not recycled.  The merged arena's pooled buffers survive
        detachment, so the caller can hand them to another module via
        :meth:`adopt_arena`.  Returns ``None`` when nothing was
        harvestable.
        """
        state = self.__dict__.pop("_arenas", None)
        if state is None:
            return None
        with state["lock"]:
            by_thread = state["by_thread"]
            caller = threading.current_thread()
            candidates = list(state["spares"])
            state["spares"].clear()
            for thread in list(by_thread):
                if thread is caller or not thread.is_alive():
                    candidates.append(by_thread.pop(thread))
        merged = None
        for arena in candidates:
            # Belt and braces for threads invisible to threading.enumerate
            # (foreign/embedded threads): skip anything that activated.
            if arena.in_active_scope:
                continue
            if merged is None:
                merged = arena
                continue
            try:
                merged.absorb(arena)
            except ValueError:  # activated between the check and the absorb
                continue
        return merged

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        state = {name: param.data.copy() for name, param in self.named_parameters()}
        state.update((name, buffer.copy()) for name, buffer in self.named_buffers())
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        buffers = dict(self.named_buffers())
        # Parameters are strict; buffers are optional, so a state saved
        # before they were persisted still loads with the initial values.
        missing = set(own) - set(state)
        unexpected = set(state) - set(own) - set(buffers)
        if missing or unexpected:
            raise KeyError(f"state_dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}")
        for name, param in own.items():
            value = np.asarray(state[name])
            if value.shape != param.data.shape:
                raise ValueError(f"shape mismatch for {name}: {value.shape} vs {param.data.shape}")
            param.data = value.astype(param.data.dtype).copy()
        for name, buffer in buffers.items():
            if name in state:
                value = np.asarray(state[name])
                if value.shape != buffer.shape:
                    raise ValueError(f"shape mismatch for {name}: {value.shape} vs {buffer.shape}")
                buffer[...] = value

    # ------------------------------------------------------------------
    # Invocation
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class ModuleList(Module):
    """An indexable container of submodules (registered for traversal)."""

    def __init__(self, modules=()):
        super().__init__()
        self._items: list[Module] = []
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        self._modules[str(len(self._items))] = module
        self._items.append(module)
        return self

    def __iter__(self):
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]


class Sequential(Module):
    """Chain modules, feeding each output into the next."""

    def __init__(self, *modules: Module):
        super().__init__()
        self._items = list(modules)
        for i, module in enumerate(self._items):
            self._modules[str(i)] = module

    def forward(self, x):
        for module in self._items:
            x = module(x)
        return x

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]
