"""Rule ``no-nondeterminism-in-hot-path``: compute paths are replayable.

Bitwise reproducibility is a load-bearing property of this repo: the
concurrency suites lock "concurrent == sequential", the chaos harness
replays fault schedules from a seed, and the benchmark compares runs
across commits.  One un-seeded RNG draw or wall-clock read inside
``repro.nn`` or ``repro.serving`` quietly breaks all three.

The rule flags calls that introduce hidden nondeterminism:

* module-level ``random.<fn>()`` draws (the process-global RNG — use a
  ``random.Random(seed)`` instance);
* ``np.random.<fn>()`` global draws, and ``np.random.default_rng()`` /
  ``RandomState()`` constructed *without* a seed;
* wall-clock reads: ``time.time()``/``time.time_ns()`` and
  ``datetime.now()``-family calls (``time.monotonic`` and
  ``time.perf_counter`` are fine — they measure, they don't decide);
* OS-entropy sources, the idioms network code reaches for to mint
  request ids and tokens: ``random.Random()`` constructed *without* a
  seed (it seeds from the OS), ``uuid.uuid1()``/``uuid.uuid4()``,
  ``os.urandom()``, and anything from the ``secrets`` module.  Request
  ids in this repo are sequence numbers, not entropy — the fault
  harness replays schedules keyed on them.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import FileContext, Finding, Rule, register_rule

__all__ = ["NoNondeterminismInHotPath"]

#: Draws on python's process-global RNG.
_GLOBAL_RANDOM_FNS = frozenset(
    {
        "random",
        "randrange",
        "randint",
        "getrandbits",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "triangular",
        "gauss",
        "normalvariate",
        "betavariate",
        "expovariate",
        "seed",
    }
)

#: np.random constructors that are fine *when seeded* (args present).
_SEEDABLE_CONSTRUCTORS = frozenset({"default_rng", "RandomState", "Generator", "SeedSequence"})

_WALL_CLOCK_TIME = frozenset({"time", "time_ns"})
_WALL_CLOCK_DATETIME = frozenset({"now", "utcnow", "today"})

#: uuid constructors backed by OS entropy (uuid3/uuid5 hash their input).
_ENTROPY_UUIDS = frozenset({"uuid1", "uuid4"})


def _attr_chain(node: ast.AST) -> list[str]:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return parts[::-1]  # root first


@register_rule
class NoNondeterminismInHotPath(Rule):
    """Un-seeded RNG / wall-clock reads in ``nn`` and ``serving``.

    Example::

        jitter = random.random()              # FLAGGED: global RNG
        rng = np.random.default_rng()         # FLAGGED: un-seeded
        rng = np.random.default_rng(seed)     # ok
        started = time.time()                 # FLAGGED: wall clock
        started = time.perf_counter()         # ok: measurement only
        rng = random.Random()                 # FLAGGED: seeds from the OS
        rng = random.Random(seed)             # ok
        request_id = uuid.uuid4()             # FLAGGED: OS entropy
        token = secrets.token_hex(8)          # FLAGGED: OS entropy
        salt = os.urandom(16)                 # FLAGGED: OS entropy
    """

    id = "no-nondeterminism-in-hot-path"
    description = (
        "no un-seeded RNG draws or wall-clock reads in nn/serving "
        "compute paths"
    )
    hint = (
        "thread a seeded random.Random / np.random.Generator through the "
        "call, or use time.monotonic()/perf_counter() for intervals"
    )
    paths = ("nn/", "serving/")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _attr_chain(node.func)
            if len(chain) < 2:
                continue
            root, leaf = chain[0], chain[-1]
            if root == "random" and len(chain) == 2 and leaf in _GLOBAL_RANDOM_FNS:
                yield ctx.finding(
                    self,
                    node,
                    f"random.{leaf}() draws from the process-global RNG "
                    "(unreplayable and cross-thread shared)",
                )
            elif root == "random" and len(chain) == 2 and leaf == "Random":
                if not node.args and not node.keywords:
                    yield ctx.finding(
                        self,
                        node,
                        "random.Random() without a seed initialises from OS "
                        "entropy; pass an explicit seed",
                    )
            elif root == "uuid" and len(chain) == 2 and leaf in _ENTROPY_UUIDS:
                yield ctx.finding(
                    self,
                    node,
                    f"uuid.{leaf}() mints ids from OS entropy; use a "
                    "deterministic sequence number instead",
                )
            elif root == "os" and len(chain) == 2 and leaf == "urandom":
                yield ctx.finding(
                    self,
                    node,
                    "os.urandom() reads OS entropy; derive bytes from a "
                    "seeded generator instead",
                )
            elif root == "secrets":
                yield ctx.finding(
                    self,
                    node,
                    f"secrets.{leaf}() is a CSPRNG draw — unreplayable by "
                    "design; hot paths must not depend on it",
                )
            elif root in ("np", "numpy") and len(chain) >= 3 and chain[1] == "random":
                if leaf in _SEEDABLE_CONSTRUCTORS:
                    if not node.args and not node.keywords:
                        yield ctx.finding(
                            self,
                            node,
                            f"np.random.{leaf}() without a seed is "
                            "nondeterministic across runs",
                        )
                else:
                    yield ctx.finding(
                        self,
                        node,
                        f"np.random.{leaf}() uses numpy's global RNG; pass a "
                        "seeded Generator instead",
                    )
            elif root == "time" and len(chain) == 2 and leaf in _WALL_CLOCK_TIME:
                yield ctx.finding(
                    self,
                    node,
                    "time.time() reads the wall clock; compute logic keyed to "
                    "it is unreplayable",
                )
            elif leaf in _WALL_CLOCK_DATETIME and any(
                part in ("datetime", "date") for part in chain[:-1]
            ):
                yield ctx.finding(
                    self,
                    node,
                    f"{'.'.join(chain)}() reads the wall clock",
                )
