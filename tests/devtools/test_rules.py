"""Seeded-violation tests: each shipping rule catches its target pattern.

Every test plants a minimal violating file in a tmp tree laid out like
the real package (so path-scoped rules apply), runs the full rule set
via :func:`repro.devtools.run_lint`, and asserts the expected rule id
fires at the planted site — and that the corrected spelling passes.
"""

from __future__ import annotations

import textwrap

from repro.devtools import run_lint


def _plant(tmp_path, relpath, source):
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source))
    return target


def _rules_hit(tmp_path):
    report = run_lint(root=tmp_path)
    return {(f.rule, f.path) for f in report.unsuppressed}


def test_no_graph_under_nograd_missing_guard(tmp_path):
    _plant(
        tmp_path,
        "nn/ops.py",
        """
        def op(x):
            def backward(out):
                pass
            return Tensor._make(x.data, (x,), backward)
        """,
    )
    assert ("no-graph-under-nograd", "nn/ops.py") in _rules_hit(tmp_path)


def test_no_graph_under_nograd_guarded_passes(tmp_path):
    _plant(
        tmp_path,
        "nn/ops.py",
        """
        def op(x):
            if not is_grad_enabled():
                return Tensor._from_array(x.data)

            def backward(out):
                pass
            return Tensor._make(x.data, (x,), backward)
        """,
    )
    hits = _rules_hit(tmp_path)
    assert not any(rule == "no-graph-under-nograd" for rule, _ in hits)


def test_no_graph_under_nograd_attribute_guard_passes(tmp_path):
    _plant(
        tmp_path,
        "nn/tensor.py",
        """
        def op(x):
            if not _CTX.grad_enabled:
                return Tensor._from_array(x.data)
            return Tensor._make(x.data, (x,), None)
        """,
    )
    hits = _rules_hit(tmp_path)
    assert not any(rule == "no-graph-under-nograd" for rule, _ in hits)


def test_no_graph_under_nograd_graph_inside_branch(tmp_path):
    _plant(
        tmp_path,
        "nn/ops.py",
        """
        def op(x):
            if not is_grad_enabled():
                return Tensor._make(x.data, (), None)
            return Tensor._make(x.data, (x,), None)
        """,
    )
    assert ("no-graph-under-nograd", "nn/ops.py") in _rules_hit(tmp_path)


def test_no_process_global_state(tmp_path):
    _plant(tmp_path, "nn/cache.py", "_CACHE = {}\n")
    assert ("no-process-global-state", "nn/cache.py") in _rules_hit(tmp_path)


def test_no_process_global_state_scope_limited(tmp_path):
    # same pattern outside nn/ and serving/ is out of scope
    _plant(tmp_path, "analysis/cache.py", "_CACHE = {}\n")
    hits = _rules_hit(tmp_path)
    assert not any(rule == "no-process-global-state" for rule, _ in hits)


def test_lock_discipline_unguarded_write(tmp_path):
    _plant(
        tmp_path,
        "serving/thing.py",
        """
        import threading


        class Thing:
            def __init__(self):
                self._lock = threading.Lock()
                self._count = 0

            def bump(self):
                self._count += 1
        """,
    )
    assert ("lock-discipline", "serving/thing.py") in _rules_hit(tmp_path)


def test_lock_discipline_guarded_and_locked_suffix_pass(tmp_path):
    _plant(
        tmp_path,
        "serving/thing.py",
        """
        import threading


        class Thing:
            def __init__(self):
                self._lock = threading.Lock()
                self._count = 0

            def bump(self):
                with self._lock:
                    self._count += 1

            def _bump_locked(self):
                self._count += 1
        """,
    )
    hits = _rules_hit(tmp_path)
    assert not any(rule == "lock-discipline" for rule, _ in hits)


def test_no_bare_except(tmp_path):
    _plant(
        tmp_path,
        "data/loader.py",
        """
        def load():
            try:
                return 1
            except:
                return None
        """,
    )
    assert ("no-bare-except", "data/loader.py") in _rules_hit(tmp_path)


def test_typed_serving_errors(tmp_path):
    _plant(
        tmp_path,
        "serving/svc.py",
        "def go():\n    raise RuntimeError('untyped')\n",
    )
    assert ("typed-serving-errors", "serving/svc.py") in _rules_hit(tmp_path)


def test_typed_serving_errors_allows_taxonomy_and_validation(tmp_path):
    _plant(
        tmp_path,
        "serving/svc.py",
        """
        def go(n):
            if n < 0:
                raise ValueError('n must be >= 0')
            raise ServiceOverloadedError('queue full')

        def rethrow(err):
            raise _rewrap(err)
        """,
    )
    hits = _rules_hit(tmp_path)
    assert not any(rule == "typed-serving-errors" for rule, _ in hits)


def test_no_nondeterminism_global_rng(tmp_path):
    _plant(
        tmp_path,
        "serving/jitter.py",
        "import random\n\n\ndef jitter():\n    return random.random()\n",
    )
    assert ("no-nondeterminism-in-hot-path", "serving/jitter.py") in _rules_hit(tmp_path)


def test_no_nondeterminism_unseeded_default_rng(tmp_path):
    _plant(
        tmp_path,
        "nn/init.py",
        "import numpy as np\n\n\ndef init():\n    return np.random.default_rng()\n",
    )
    assert ("no-nondeterminism-in-hot-path", "nn/init.py") in _rules_hit(tmp_path)


def test_no_nondeterminism_seeded_and_monotonic_pass(tmp_path):
    _plant(
        tmp_path,
        "nn/init.py",
        """
        import random
        import time

        import numpy as np


        def init(seed):
            rng = np.random.default_rng(seed)
            jitter = random.Random(seed)
            started = time.monotonic()
            return rng, jitter, started
        """,
    )
    hits = _rules_hit(tmp_path)
    assert not any(rule == "no-nondeterminism-in-hot-path" for rule, _ in hits)


def test_no_nondeterminism_wall_clock(tmp_path):
    _plant(
        tmp_path,
        "serving/clock.py",
        "import time\n\n\ndef stamp():\n    return time.time()\n",
    )
    assert ("no-nondeterminism-in-hot-path", "serving/clock.py") in _rules_hit(tmp_path)


def test_no_nondeterminism_covers_kernel_modules(tmp_path):
    """The conv kernel and the conv autograd ops are hot-path nn/
    modules: an unseeded RNG planted in either must be caught exactly
    like the established nn/ and serving/ seeds above."""
    _plant(
        tmp_path,
        "nn/kernels.py",
        "import numpy as np\n\n\ndef tap_order():\n    return np.random.default_rng().permutation(9)\n",
    )
    _plant(
        tmp_path,
        "nn/ops.py",
        "import random\n\n\ndef dither():\n    return random.random()\n",
    )
    hits = _rules_hit(tmp_path)
    assert ("no-nondeterminism-in-hot-path", "nn/kernels.py") in hits
    assert ("no-nondeterminism-in-hot-path", "nn/ops.py") in hits


def test_all_export_stale_entry(tmp_path):
    _plant(tmp_path, "mod.py", "__all__ = ['gone']\n")
    assert ("all-export-consistency", "mod.py") in _rules_hit(tmp_path)


def test_all_export_missing_public_def(tmp_path):
    _plant(
        tmp_path,
        "mod.py",
        "__all__ = ['visible']\n\n\ndef visible():\n    pass\n\n\ndef leaked():\n    pass\n",
    )
    assert ("all-export-consistency", "mod.py") in _rules_hit(tmp_path)


def test_all_export_package_submodules_pass(tmp_path):
    _plant(tmp_path, "pkg/__init__.py", "__all__ = ['sub']\n")
    _plant(tmp_path, "pkg/sub.py", "x = 1\n")
    hits = _rules_hit(tmp_path)
    assert not any(rule == "all-export-consistency" for rule, _ in hits)


def test_all_export_private_and_imported_names_pass(tmp_path):
    _plant(
        tmp_path,
        "mod.py",
        """
        from collections import OrderedDict

        __all__ = ['visible']


        def visible():
            pass


        def _internal():
            pass
        """,
    )
    hits = _rules_hit(tmp_path)
    assert not any(rule == "all-export-consistency" for rule, _ in hits)


def test_lock_discipline_subscript_write_through_attribute(tmp_path):
    # The network-edge counter idiom: mutating the dict the attribute
    # holds is a write, the same as rebinding the attribute.
    _plant(
        tmp_path,
        "serving/edge.py",
        """
        import threading

        class Edge:
            def __init__(self):
                self._lock = threading.Lock()
                self._counters = {"requests": 0}
                self._cache = {}

            def hit(self):
                self._counters["requests"] += 1

            def evict(self, key):
                del self._cache[key]
        """,
    )
    report = run_lint(root=tmp_path)
    lines = sorted(
        f.line for f in report.unsuppressed if f.rule == "lock-discipline"
    )
    assert len(lines) == 2, report.render_text()


def test_lock_discipline_guarded_subscript_and_asyncio_lock_pass(tmp_path):
    _plant(
        tmp_path,
        "serving/edge.py",
        """
        import asyncio

        class Edge:
            def __init__(self):
                self._lock = asyncio.Lock()
                self._counters = {"requests": 0}

            async def hit(self):
                async with self._lock:
                    self._counters["requests"] += 1
        """,
    )
    hits = _rules_hit(tmp_path)
    assert not any(rule == "lock-discipline" for rule, _ in hits)


def test_no_nondeterminism_os_entropy_sources(tmp_path):
    _plant(
        tmp_path,
        "serving/ids.py",
        """
        import os
        import random
        import secrets
        import uuid

        def mint():
            rng = random.Random()
            return uuid.uuid4(), secrets.token_hex(8), os.urandom(16), rng
        """,
    )
    report = run_lint(root=tmp_path)
    messages = [
        f.message
        for f in report.unsuppressed
        if f.rule == "no-nondeterminism-in-hot-path"
    ]
    assert len(messages) == 4, report.render_text()
    assert any("random.Random() without a seed" in m for m in messages)
    assert any("uuid.uuid4()" in m for m in messages)
    assert any("secrets.token_hex()" in m for m in messages)
    assert any("os.urandom()" in m for m in messages)


def test_no_nondeterminism_seeded_random_and_hashing_uuids_pass(tmp_path):
    _plant(
        tmp_path,
        "serving/ids.py",
        """
        import random
        import uuid

        def mint(seed, ns, name):
            rng = random.Random(seed)
            return uuid.uuid5(ns, name), rng.random()
        """,
    )
    hits = _rules_hit(tmp_path)
    assert not any(rule == "no-nondeterminism-in-hot-path" for rule, _ in hits)
