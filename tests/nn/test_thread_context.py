"""Thread-local execution state: no_grad / use_arena / dtype_scope opened
on one thread must be invisible to every other thread, and concurrent
no-grad + arena inference must be bitwise-equal to sequential execution.

This is the regression contract for the ExecutionContext refactor: the
grad flag, the active arena and the default dtype were process-global
module variables before, so two threads predicting concurrently silently
corrupted each other (graphs built mid-no_grad, recycled arena buffers
aliased across callers).
"""

import threading

import numpy as np
import pytest

from repro import nn
from repro.nn import ExecutionContext, Tensor, execution_context
from repro.nn.arena import BufferArena, active_arena, use_arena
from repro.nn.tensor import no_grad


def run_in_thread(fn, *args):
    """Run ``fn`` on a fresh thread, re-raising anything it raises."""
    box = {}

    def target():
        try:
            box["result"] = fn(*args)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            box["error"] = exc

    thread = threading.Thread(target=target)
    thread.start()
    thread.join()
    if "error" in box:
        raise box["error"]
    return box.get("result")


def run_concurrently(fns):
    """Start one thread per callable, join all, re-raise the first error."""
    errors = []

    def wrap(fn):
        def target():
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        return target

    threads = [threading.Thread(target=wrap(fn)) for fn in fns]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


class TestContextIsolation:
    def test_execution_context_is_threading_local(self):
        assert isinstance(execution_context(), ExecutionContext)
        assert isinstance(execution_context(), threading.local)

    def test_fresh_thread_gets_default_state(self):
        with no_grad(), use_arena(BufferArena()), nn.dtype_scope("float32"):
            # Inside all three scopes on the main thread, a fresh thread
            # still sees the defaults.
            state = run_in_thread(
                lambda: (
                    nn.is_grad_enabled(),
                    active_arena(),
                    nn.get_default_dtype(),
                )
            )
        assert state == (True, None, np.dtype(np.float64))

    def test_no_grad_on_another_thread_does_not_leak_here(self):
        entered = threading.Event()
        release = threading.Event()

        def hold_no_grad():
            with no_grad():
                entered.set()
                assert release.wait(5)

        thread = threading.Thread(target=hold_no_grad)
        thread.start()
        try:
            assert entered.wait(5)
            # The other thread sits inside no_grad right now; this thread
            # must still build graphs.
            x = Tensor(np.ones((2, 2)), requires_grad=True)
            y = (x * 3.0).sum()
            assert y.requires_grad
            y.backward()
            assert np.array_equal(x.grad, np.full((2, 2), 3.0))
        finally:
            release.set()
            thread.join()

    def test_dtype_scope_on_another_thread_does_not_recast_here(self):
        entered = threading.Event()
        release = threading.Event()

        def hold_float32():
            with nn.dtype_scope("float32"):
                entered.set()
                assert release.wait(5)

        thread = threading.Thread(target=hold_float32)
        thread.start()
        try:
            assert entered.wait(5)
            assert Tensor(np.arange(3)).dtype == np.float64
        finally:
            release.set()
            thread.join()

    def test_arenas_are_independent_across_threads(self):
        """Nested use_arena with *different* arenas on concurrent threads:
        each thread's ops allocate only from its own arenas."""
        arenas = [(BufferArena(), BufferArena()) for _ in range(4)]
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((8, 8)))
        barrier = threading.Barrier(4)

        def worker(outer: BufferArena, inner: BufferArena):
            barrier.wait()
            for _ in range(10):
                with no_grad(), use_arena(outer):
                    assert active_arena() is outer
                    (x @ x).tanh()
                    with use_arena(inner):
                        assert active_arena() is inner
                        (x + x).relu()
                    assert active_arena() is outer
                assert active_arena() is None

        run_concurrently([lambda pair=pair: worker(*pair) for pair in arenas])
        for outer, inner in arenas:
            assert outer.num_buffers > 0 and inner.num_buffers > 0
            assert len(outer._in_use) == 0 and len(inner._in_use) == 0
            assert outer.hits > 0  # the second iteration recycled


class TestConcurrentNumerics:
    def _chain(self, x: Tensor, w: Tensor) -> np.ndarray:
        h = (x @ w).tanh().sigmoid().leaky_relu(0.2)
        return ((h * 2.0 + 1.0).relu() - h / 3.0).exp().log().data

    def test_concurrent_no_grad_arena_chains_bitwise_equal(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((16, 12)), requires_grad=True)
        w = Tensor(rng.standard_normal((12, 8)), requires_grad=True)
        reference = self._chain(x, w)
        results = [None] * 6
        barrier = threading.Barrier(6)

        def worker(idx: int):
            arena = BufferArena()
            barrier.wait()
            for _ in range(20):
                with no_grad(), use_arena(arena):
                    out = self._chain(x, w).copy()
            results[idx] = out

        run_concurrently([lambda i=i: worker(i) for i in range(6)])
        for out in results:
            assert np.array_equal(reference, out)

    def test_training_thread_unaffected_by_inference_threads(self):
        """One thread runs graph-building training steps while others hammer
        the no-grad arena path; gradients must match the quiet run."""
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((6, 5)))
        w = Tensor(rng.standard_normal((5, 4)), requires_grad=True)

        def loss_grad() -> np.ndarray:
            w.grad = None
            ((x @ w).tanh() ** 2).sum().backward()
            return w.grad.copy()

        quiet = loss_grad()
        stop = threading.Event()

        def inference_noise():
            arena = BufferArena()
            while not stop.is_set():
                with no_grad(), use_arena(arena):
                    (x @ w).tanh().sigmoid()

        noise_threads = [threading.Thread(target=inference_noise) for _ in range(3)]
        for thread in noise_threads:
            thread.start()
        try:
            for _ in range(20):
                assert np.array_equal(loss_grad(), quiet)
        finally:
            stop.set()
            for thread in noise_threads:
                thread.join()


class TestPerThreadModuleArena:
    def test_each_thread_claims_its_own_arena(self):
        from repro.nn import Linear

        model = Linear(4, 3, np.random.default_rng(0))
        main_arena = model._inference_arena()
        assert model._inference_arena() is main_arena  # stable per thread
        other = run_in_thread(model._inference_arena)
        assert other is not main_arena

    def test_adopted_arena_is_claimed_by_a_new_thread(self):
        from repro.nn import Linear

        model = Linear(4, 3, np.random.default_rng(0))
        warm = BufferArena()
        model.adopt_arena(warm)
        assert run_in_thread(model._inference_arena) is warm

    def test_use_arena_marks_active_scope(self):
        arena = BufferArena()
        assert not arena.in_active_scope
        with use_arena(arena):
            assert arena.in_active_scope
            with use_arena(arena):  # reentrant: still one active owner
                assert arena.in_active_scope
            assert arena.in_active_scope
        assert not arena.in_active_scope

    def test_absorb_refuses_active_arena(self):
        target, active = BufferArena(), BufferArena()
        with use_arena(active):
            with pytest.raises(ValueError, match="active"):
                target.absorb(active)

    def test_release_arena_skips_arenas_of_threads_mid_predict(self):
        """Pool-eviction safety: release_arena while another thread is
        inside its predict scope must not steal that thread's arena."""
        from repro.nn import Linear

        model = Linear(4, 3, np.random.default_rng(0))
        entered = threading.Event()
        release = threading.Event()
        box = {}

        def predicting_thread():
            arena = model._inference_arena()
            box["arena"] = arena
            with no_grad(), use_arena(arena):
                arena.take((9,), np.float64)
                entered.set()
                assert release.wait(5)

        thread = threading.Thread(target=predicting_thread)
        thread.start()
        try:
            assert entered.wait(5)
            # The main thread's quiescent arena is harvestable; the
            # mid-predict thread's is not.
            main_arena = model._inference_arena()
            merged = model.release_arena()
            assert merged is main_arena
            assert box["arena"].in_active_scope  # untouched, still live
        finally:
            release.set()
            thread.join()

    def test_release_arena_leaves_live_idle_threads_arenas_alone(self):
        """Even an *idle* live sibling thread may start a predict at any
        moment, so release_arena must not transfer its arena (only the
        caller's own, dead threads', and spares are quiescent by
        construction)."""
        from repro.nn import Linear

        model = Linear(4, 3, np.random.default_rng(0))
        claimed = threading.Event()
        release = threading.Event()
        box = {}

        def idle_thread():
            arena = model._inference_arena()
            arena.take((11,), np.float64)
            arena.release_all()  # warm but quiescent
            box["arena"] = arena
            claimed.set()
            assert release.wait(5)

        thread = threading.Thread(target=idle_thread)
        thread.start()
        try:
            assert claimed.wait(5)
            main_arena = model._inference_arena()
            main_arena.take((5,), np.float64)
            main_arena.release_all()
            merged = model.release_arena()
            assert merged is main_arena
            assert merged.num_buffers == 1  # the sibling's buffer not absorbed
            assert box["arena"].num_buffers == 1  # left intact with its owner
        finally:
            release.set()
            thread.join()

    def test_release_arena_consolidates_thread_arenas(self):
        from repro.nn import Linear

        model = Linear(4, 3, np.random.default_rng(0))
        main_arena = model._inference_arena()
        main_arena.take((5,), np.float64)
        main_arena.release_all()

        def other_thread():
            arena = model._inference_arena()
            arena.take((7,), np.float64)
            arena.release_all()

        run_in_thread(other_thread)
        merged = model.release_arena()
        assert merged is not None
        # Buffers warmed on both threads survive into the merged arena.
        assert merged.num_buffers == 2
        assert model.release_arena() is None  # detached


class TestArenaKeyNormalization:
    """Regression: every spelling of a dtype re-hits released memory.

    When take() keyed buffers by the raw dtype argument, a caller passing
    the *scalar type* np.float32 never re-hit buffers released under the
    np.dtype('float32') key, so every call missed and the free pool grew
    without bound.  Pooled slabs carry no dtype now; these tests keep the
    guarantee.
    """

    @pytest.mark.parametrize("spelling", [np.float32, np.dtype("float32"), "float32"])
    def test_second_take_hits_for_every_dtype_spelling(self, spelling):
        arena = BufferArena()
        first = arena.take((4, 4), spelling)
        assert first.dtype == np.float32
        arena.release_all()
        second = arena.take((4, 4), spelling)
        assert np.shares_memory(second, first)  # recycled, not a fresh allocation
        assert arena.hits == 1 and arena.misses == 1
        assert arena.num_buffers == 1  # no unbounded growth

    def test_spellings_share_one_pool(self):
        arena = BufferArena()
        first = arena.take((3, 3), np.float64)
        arena.release_all()
        second = arena.take((3, 3), np.dtype("float64"))
        assert np.shares_memory(second, first)
        assert arena.hits == 1
