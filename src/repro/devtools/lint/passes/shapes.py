"""The ``shapes`` pass: run every registered model on one fixed geometry.

Every :class:`~repro.api.registry.ModelSpec` is built at :data:`GEOMETRY`,
a 5x7 grid, and its real ``forward_batch`` (the one forward every caller
runs) is run on seeded random inputs under ``nn.no_grad`` with no arena
(the serving path's ambient state), in native mode and in float32 mode.
Every dimension of that geometry differs from every other (rows 5, cols
7, R = 35, window T = 11, C = 3, hidden 26, batch B = 2 and 13), so
code that transposes two axes, reads a size from the wrong dim,
broadcasts two different dims or hard-codes a batch size fails outright
instead of passing by numeric coincidence.  For a per-sample model this
checks its ``forward`` through ``ForecastModel``'s default
``forward_batch`` too.

Checks per (model, mode):

``shape``
    ``forward_batch`` on ``(B, R, T, C)`` must yield a floating
    ``(B, R, C)`` :class:`~repro.nn.Tensor`; anything else, a bare
    ndarray included, is a shape problem, since
    ``ForecastModel.predict_batch`` reads the result's ``.data``.  A
    model with no ``forward_batch`` is a shape problem,
    and so is a builder or forward that raises, reported with the
    exception text and the line that raised (a ``ForecastModel``
    subclass that implements neither ``forward`` nor ``forward_batch``
    raises ``RecursionError``: its two defaults call each other).
``broadcast``
    A forward raised numpy's broadcast ``ValueError``: two different
    dims met in one elementwise op.
``dtype-leak``
    In float32 mode, the output is not float32, or a float64 array
    reached ``Tensor._from_array`` (every no-grad op result passes
    through it) during the forward.

Float32 mode mirrors ``Forecaster.load``: ``spec.build(...,
compute_dtype="float32")``, and a builder that rejects the knob
(``TypeError``) is a skip, not a failure.

Known gap: a float64 promotion that is cast back to float32 before it
reaches ``Tensor._from_array`` or the output (inside one primitive, or
in raw-numpy model code) leaves no trace a concrete run can see.

Problems convert into lint findings anchored at the model's
``@REGISTRY.register(...)`` line, where the model is declared.
"""

from __future__ import annotations

import re
import sys
import threading
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ....nn import Tensor, no_grad
from ..engine import Pass, register_pass

__all__ = [
    "GEOMETRY",
    "CheckGeometry",
    "ModelReport",
    "Problem",
    "ShapeCheckPass",
    "check_model",
    "check_registry",
    "registration_lines",
]

MODES = ("native", "float32")


@dataclass(frozen=True)
class CheckGeometry:
    """The sizes every model is built and run at.

    Every size differs from every other (rejected otherwise), so a
    concrete size in a message names its dimension and two different
    dims never broadcast together by numeric coincidence.
    """

    rows: int
    cols: int
    categories: int
    window: int
    hidden: int
    batch_sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        sizes = [self.rows, self.cols, self.regions, self.categories, self.window, self.hidden]
        sizes += self.batch_sizes
        if len(set(sizes)) != len(sizes):
            raise ValueError(f"check geometry sizes must all differ, got {sizes}")

    @property
    def regions(self) -> int:
        return self.rows * self.cols

    def dims(self, shape) -> str:
        """``shape`` with each size labelled by the dimension it names."""
        names = {
            self.regions: "R",
            self.window: "T",
            self.categories: "C",
            self.hidden: "hidden",
            self.rows: "rows",
            self.cols: "cols",
            **{b: "B" for b in self.batch_sizes},
        }
        return "(" + ", ".join(f"{names[d]}={d}" if d in names else str(d) for d in shape) + ")"


GEOMETRY = CheckGeometry(rows=5, cols=7, categories=3, window=11, hidden=26, batch_sizes=(2, 13))

#: problem kind -> lint finding rule id
_KIND_TO_RULE = {
    "shape": "model-shape-contract",
    "dtype-leak": "dtype-promotion-leak",
    "broadcast": "broadcast-surprise",
}

_NAME_RE = re.compile(r'"([^"]+)"')


def registration_lines(root: Path) -> tuple[str, dict[str, int]]:
    """Map registered model names to their ``@REGISTRY.register`` lines.

    Returns ``(relpath, {name: line})``.  Decorator calls may carry the
    name on the decorator line or (black-wrapped) on the next line.
    Falls back to the installed package when the lint root has no
    ``api/registry.py`` (e.g. linting a test tree).
    """
    relpath = "api/registry.py"
    path = Path(root) / relpath
    if not path.is_file():
        from ..engine import default_root

        path = default_root() / relpath
    lines = path.read_text(encoding="utf-8").splitlines()
    anchors: dict[str, int] = {}
    for i, line in enumerate(lines):
        if "@REGISTRY.register" not in line:
            continue
        match = _NAME_RE.search(line) or (
            _NAME_RE.search(lines[i + 1]) if i + 1 < len(lines) else None
        )
        if match:
            anchors.setdefault(match.group(1), i + 1)
    return relpath, anchors


@dataclass
class Problem:
    """One contract violation found for a (model, mode) combination."""

    kind: str  # shape | dtype-leak | broadcast
    model: str
    mode: str  # native | float32
    message: str

    def describe(self) -> str:
        return f"{self.model} [{self.mode}]: {self.message}"


@dataclass
class ModelReport:
    """Outcome of running one model in one mode."""

    model: str
    mode: str
    skipped: bool = False
    skip_reason: str = ""
    problems: list[Problem] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def add(self, kind: str, message: str) -> None:
        self.problems.append(Problem(kind, self.model, self.mode, message))


def _raised(exc: Exception) -> str:
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{type(exc).__name__}: {str(exc).strip()} (at {Path(frame.filename).name}:{frame.lineno})"


@contextmanager
def _float64_spy(found: list):
    """Record every float64 array this thread hands ``Tensor._from_array``.

    ``found`` collects ``(op name, shape)`` pairs.  The original
    staticmethod is restored on exit, so ``repro.nn`` carries no hook.
    """
    original = Tensor.__dict__["_from_array"]
    wrapped = original.__func__
    owner = threading.get_ident()

    def spy(data):
        if getattr(data, "dtype", None) == np.float64 and threading.get_ident() == owner:
            found.append((sys._getframe(1).f_code.co_name, np.shape(data)))
        return wrapped(data)

    Tensor._from_array = staticmethod(spy)
    try:
        yield found
    finally:
        Tensor._from_array = original


def _run(report: ModelReport, geometry: CheckGeometry, context: str, fn, x, expected) -> None:
    """Run one forward, folding failures and contract breaks into ``report``."""
    leaks: list = []
    spy = _float64_spy(leaks) if report.mode == "float32" else nullcontext()
    try:
        with no_grad(), spy:
            result = fn(x)
    except Exception as exc:  # noqa: BLE001 - every failure is a finding
        kind = "broadcast" if "could not be broadcast" in str(exc) else "shape"
        report.add(kind, f"{context} raised {_raised(exc)}")
        return
    if leaks:
        op, shape = leaks[0]
        report.add(
            "dtype-leak",
            f"{context}: {len(leaks)} float64 result(s) reached Tensor._from_array "
            f"in float32 mode, first from {op}() with shape {geometry.dims(shape)}",
        )
    if not isinstance(result, Tensor):
        report.add("shape", f"{context} returned {type(result).__name__}, not a Tensor")
        return
    data = result.data
    if data.shape != expected:
        report.add(
            "shape",
            f"{context} output shape {geometry.dims(data.shape)} "
            f"!= expected {geometry.dims(expected)}",
        )
    if data.dtype.kind != "f":
        report.add("shape", f"{context} output dtype {data.dtype} is not floating")
    elif report.mode == "float32" and data.dtype != np.float32:
        report.add("dtype-leak", f"{context} output dtype {data.dtype} in float32 mode")


def check_model(spec, *, mode: str = "native") -> ModelReport:
    """Build one registered model at :data:`GEOMETRY` and run it in ``mode``."""
    from ....api.registry import ModelGeometry

    g = GEOMETRY
    report = ModelReport(spec.name, mode)
    overrides = {} if mode == "native" else {"compute_dtype": "float32"}
    geometry = ModelGeometry(rows=g.rows, cols=g.cols, num_categories=g.categories)
    try:
        model = spec.build(geometry, g.window, hidden=g.hidden, seed=0, **overrides)
    except Exception as exc:  # noqa: BLE001 - every failure is a finding
        if mode == "float32" and isinstance(exc, TypeError):
            # Mirrors Forecaster.load: the builder has no dtype knob, the
            # model serves at native dtype — nothing to check in f32 mode.
            report.skipped = True
            report.skip_reason = "builder does not accept compute_dtype"
        else:
            report.add("shape", f"builder raised {_raised(exc)}")
        return report
    model.eval()
    forward_batch = getattr(model, "forward_batch", None)
    if forward_batch is None:
        report.add(
            "shape",
            f"{type(model).__name__} has no forward_batch; subclass "
            "repro.training.interface.ForecastModel",
        )
        return report
    rng = np.random.default_rng(0)
    for b in g.batch_sizes:
        windows = rng.standard_normal((b, g.regions, g.window, g.categories))
        expected = (b, g.regions, g.categories)
        _run(report, g, f"forward_batch(B={b})", forward_batch, windows, expected)
    return report


def check_registry() -> list[ModelReport]:
    """Run every registered model in every mode."""
    from ....api.registry import REGISTRY

    return [check_model(spec, mode=mode) for spec in REGISTRY for mode in MODES]


@register_pass
class ShapeCheckPass(Pass):
    """Verify every model's shape/dtype contract by running it."""

    id = "shapes"
    description = (
        "run every registered model's forward_batch on a 5x7 grid "
        "(R=35, T=11, C=3, B=2 and 13) in native and float32 modes"
    )
    hint = (
        "run `check_model(REGISTRY.spec(name), mode=...)` from "
        "repro.devtools.lint.passes.shapes; the message names each "
        "dimension, since every one differs on the check geometry"
    )
    emits = {
        "model-shape-contract": (
            "a model's builder or forward_batch raises or is missing, or "
            "breaks the (B, R, C) floating Tensor output contract"
        ),
        "dtype-promotion-leak": (
            "a float32-mode forward returns non-float32 output or produces "
            "a float64 Tensor on the way"
        ),
        "broadcast-surprise": (
            "a forward broadcasts two different dims together (numpy "
            "raises once every dim of the check geometry differs)"
        ),
    }

    def run(self, root: Path):
        relpath, anchors = registration_lines(root)
        for report in check_registry():
            for problem in report.problems:
                yield self.finding(
                    _KIND_TO_RULE[problem.kind],
                    path=relpath,
                    line=anchors.get(problem.model, 1),
                    message=problem.describe(),
                )
