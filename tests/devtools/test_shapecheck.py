"""Semantic-pass tests: the concrete shape check and the contract checker.

Two layers, mirroring the implementation:

* the **full matrix** — every registered model x {native, float32}
  runs cleanly on the check geometry (the same sweep `repro lint
  --check shapes` gates CI on) and on a second, taller and larger one;
* **seeded violations** — toy models with a deliberate shape break,
  dtype leak, broadcast of two different dims, hard-coded batch size,
  non-Tensor output, missing ``forward_batch`` and raising builder,
  each detected with the right problem kind and, through the lint pass,
  the right rule id anchored at a real ``path:line``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.api.registry import REGISTRY, ModelSpec
from repro.devtools import run_lint
from repro.devtools.lint.passes import shapes
from repro.devtools.lint.passes.shapes import (
    GEOMETRY,
    MODES,
    CheckGeometry,
    ModelReport,
    Problem,
    check_model,
    check_registry,
)
from repro.nn import Tensor
from repro.training.interface import ForecastModel

pytestmark = pytest.mark.lint_smoke

# Rows > cols where the check geometry has rows < cols, and R in the
# hundreds: a size hard-coded to fit 5x7 fails here.
TALL = CheckGeometry(rows=16, cols=12, categories=4, window=8, hidden=10, batch_sizes=(3, 5))
GEOMETRIES = pytest.mark.parametrize("geometry", [GEOMETRY, TALL], ids=["5x7", "16x12"])


# ---------------------------------------------------------------------
# The full matrix: 17 models x 2 geometries x 2 dtype modes.
# ---------------------------------------------------------------------


@pytest.mark.parametrize("mode", MODES)
@GEOMETRIES
@pytest.mark.parametrize("name", REGISTRY.names())
def test_model_runs_cleanly(name, geometry, mode, monkeypatch):
    monkeypatch.setattr(shapes, "GEOMETRY", geometry)
    report = check_model(REGISTRY.spec(name), mode=mode)
    if report.skipped:
        # Mirrors Forecaster.load: only builders with a compute_dtype
        # knob have a float32 serving mode to check.
        assert mode == "float32"
        assert report.skip_reason == "builder does not accept compute_dtype"
        return
    assert report.ok, "\n".join(p.describe() for p in report.problems)


def test_check_registry_covers_the_full_matrix():
    reports = check_registry()
    assert len(reports) == len(REGISTRY.names()) * len(MODES)
    assert all(r.ok for r in reports)


def test_check_geometry_sizes_must_all_differ():
    with pytest.raises(ValueError, match="must all differ"):
        CheckGeometry(rows=6, cols=6, categories=4, window=8, hidden=10, batch_sizes=(3, 5))
    with pytest.raises(ValueError, match="must all differ"):  # R == T
        CheckGeometry(rows=2, cols=5, categories=4, window=10, hidden=12, batch_sizes=(3, 7))
    with pytest.raises(ValueError, match="must all differ"):  # B == C
        CheckGeometry(rows=5, cols=7, categories=3, window=11, hidden=26, batch_sizes=(3, 13))


# ---------------------------------------------------------------------
# Seeded violations: each problem kind detected on a toy model.
# ---------------------------------------------------------------------


class _ShapeBroken:
    """Reduces over the wrong axis: (B, R, T, C) -> (B, R, T), not (B, R, C)."""

    def eval(self):
        return self

    def forward_batch(self, windows):
        return Tensor(np.mean(windows, axis=3))


class _DtypeLeaky:
    """float32 path that matmuls against a float64 constant."""

    def __init__(self, num_categories):
        self._w = np.zeros((num_categories, num_categories), dtype=np.float64)

    def eval(self):
        return self

    def forward_batch(self, windows):
        xf = windows.astype(np.float32)
        return Tensor(xf[:, :, -1, :] @ self._w)  # promotes back to float64


class _TensorLeakCastBack:
    """float32 Tensor op promoting to float64, cast back before returning."""

    def __init__(self, num_categories):
        self._w = Tensor(np.zeros((num_categories, num_categories), dtype=np.float64))

    def eval(self):
        return self

    def forward_batch(self, windows):
        x = Tensor(np.asarray(windows, dtype=np.float32))
        return Tensor((x[:, :, -1, :] @ self._w).data.astype(np.float32))


class _BroadcastDifferentDims:
    """Adds a T-derived vector to an R-derived one."""

    def eval(self):
        return self

    def forward_batch(self, windows):
        t = np.sum(windows, axis=(0, 1, 3))  # (T,)
        r = np.sum(windows, axis=(0, 2, 3))  # (R,)
        _ = t + r  # only legal when window == num_regions
        return Tensor(np.mean(windows, axis=2))


class _NoForwardBatch:
    """A third-party registry entry that does not subclass ForecastModel."""

    def eval(self):
        return self

    def forward(self, window):
        return np.mean(window, axis=1)


class _NeitherForward(ForecastModel):
    """Implements neither forward nor forward_batch: the defaults recurse."""


class _BatchConcretiser:
    """forward_batch whose output batch dim is hard-coded."""

    def eval(self):
        return self

    def forward_batch(self, windows):
        return Tensor(
            np.zeros((GEOMETRY.batch_sizes[0], windows.shape[1], windows.shape[3]), dtype=np.float64)
        )


@dataclass
class _Views:
    prediction: Tensor


class _DataclassOutput(ForecastModel):
    """Returns the right (B, R, C) Tensor, but inside a dataclass."""

    def forward_batch(self, windows):
        return _Views(Tensor(np.mean(windows, axis=2)))


class _BareArrayOutput(ForecastModel):
    """Returns the right (B, R, C) values as a bare ndarray."""

    def forward_batch(self, windows):
        return np.mean(windows, axis=2)


def _spec(model_cls, name="toy", accepts_dtype=False):
    def build(geometry, *, window, hidden, seed, **overrides):
        if not accepts_dtype and "compute_dtype" in overrides:
            raise TypeError("no compute_dtype knob")
        try:
            return model_cls(geometry.num_categories)
        except TypeError:
            return model_cls()

    return ModelSpec(name=name, builder=build)


@GEOMETRIES
def test_shape_break_detected(geometry, monkeypatch):
    monkeypatch.setattr(shapes, "GEOMETRY", geometry)
    report = check_model(_spec(_ShapeBroken))
    assert [p.kind for p in report.problems] == ["shape"] * len(geometry.batch_sizes)
    R, T, C = geometry.regions, geometry.window, geometry.categories
    for b, problem in zip(geometry.batch_sizes, report.problems):
        assert f"(B={b}, R={R}, T={T}) != expected (B={b}, R={R}, C={C})" in problem.message


def test_dtype_leak_detected_only_in_float32_mode():
    spec = _spec(_DtypeLeaky, accepts_dtype=True)
    leaky = check_model(spec, mode="float32")
    assert [p.kind for p in leaky.problems] == ["dtype-leak"] * len(GEOMETRY.batch_sizes)
    assert "output dtype float64 in float32 mode" in leaky.problems[0].message
    native = check_model(spec)
    assert native.ok  # promotion to the native dtype is not a leak


def test_tensor_leak_cast_back_detected_only_in_float32_mode():
    # The output is float32 again: only the spy on Tensor._from_array
    # sees the float64 matmul result.
    spec = _spec(_TensorLeakCastBack, accepts_dtype=True)
    from_array = Tensor.__dict__["_from_array"]
    leaky = check_model(spec, mode="float32")
    assert Tensor.__dict__["_from_array"] is from_array  # the spy is gone again
    assert [p.kind for p in leaky.problems] == ["dtype-leak"] * len(GEOMETRY.batch_sizes)
    assert "reached Tensor._from_array in float32 mode" in leaky.problems[0].message
    assert "__matmul__() with shape (B=2, R=35, C=3)" in leaky.problems[0].message
    assert check_model(spec).ok


def test_broadcast_of_different_dims_detected():
    report = check_model(_spec(_BroadcastDifferentDims))
    assert [p.kind for p in report.problems] == ["broadcast"] * len(GEOMETRY.batch_sizes)
    assert "could not be broadcast" in report.problems[0].message


def test_missing_forward_batch_is_one_shape_finding(monkeypatch):
    report = check_model(_spec(_NoForwardBatch))
    assert [p.kind for p in report.problems] == ["shape"]
    assert "_NoForwardBatch has no forward_batch" in report.problems[0].message
    # Through the pass: one finding, not an AttributeError that aborts it.
    monkeypatch.setattr(shapes, "check_registry", lambda: [report])
    findings = run_lint(checks=["shapes"]).unsuppressed
    assert [f.rule for f in findings] == ["model-shape-contract"]
    assert "has no forward_batch" in findings[0].message


@pytest.mark.parametrize(
    "model_cls,returned", [(_DataclassOutput, "_Views"), (_BareArrayOutput, "ndarray")]
)
def test_non_tensor_output_is_a_shape_finding(model_cls, returned, monkeypatch):
    # ForecastModel.predict_batch reads the result's .data, so only a
    # Tensor keeps the contract, however right the carried values are.
    report = check_model(_spec(model_cls))
    assert [p.kind for p in report.problems] == ["shape"] * len(GEOMETRY.batch_sizes)
    assert f"forward_batch(B=2) returned {returned}, not a Tensor" in report.problems[0].message
    monkeypatch.setattr(shapes, "check_registry", lambda: [report])
    findings = run_lint(checks=["shapes"]).unsuppressed
    assert [f.rule for f in findings] == ["model-shape-contract"] * len(GEOMETRY.batch_sizes)


def test_forecast_model_with_neither_forward_is_a_shape_problem():
    report = check_model(_spec(_NeitherForward))
    assert {p.kind for p in report.problems} == {"shape"}
    assert "RecursionError" in report.problems[0].message


def test_batch_concretisation_caught_by_second_batch_size():
    report = check_model(_spec(_BatchConcretiser))
    assert [p.kind for p in report.problems] == ["shape"]
    assert f"forward_batch(B={GEOMETRY.batch_sizes[1]})" in report.problems[0].message


def test_raising_builder_is_a_shape_problem():
    def build(geometry, *, window, hidden, seed, **overrides):
        raise ValueError("unsupported grid")

    report = check_model(ModelSpec(name="toy", builder=build))
    assert [p.kind for p in report.problems] == ["shape"]
    assert "builder raised ValueError: unsupported grid" in report.problems[0].message


def test_builder_type_error_skips_only_the_float32_mode():
    spec = _spec(_ShapeBroken, accepts_dtype=False)
    float32 = check_model(spec, mode="float32")
    assert float32.skipped and float32.ok
    assert float32.skip_reason == "builder does not accept compute_dtype"

    def build(geometry, *, window, hidden, seed, **overrides):
        raise TypeError("bad hidden size")

    native = check_model(ModelSpec(name="toy", builder=build))
    assert not native.skipped
    assert [p.kind for p in native.problems] == ["shape"]
    assert "builder raised TypeError: bad hidden size" in native.problems[0].message


class _LeakThenRaise(_TensorLeakCastBack):
    """Makes a float64 Tensor, then fails before returning."""

    def forward_batch(self, windows):
        super().forward_batch(windows)
        raise RuntimeError("late failure")


def test_float64_spy_is_removed_when_the_forward_raises():
    from_array = Tensor.__dict__["_from_array"]
    report = check_model(_spec(_LeakThenRaise, accepts_dtype=True), mode="float32")
    assert Tensor.__dict__["_from_array"] is from_array
    assert [p.kind for p in report.problems] == ["shape"] * len(GEOMETRY.batch_sizes)
    assert "forward_batch(B=2) raised RuntimeError: late failure" in report.problems[0].message


# ---------------------------------------------------------------------
# The lint passes: findings with path:line, suppressions, CLI, CI gate.
# ---------------------------------------------------------------------


def test_shapes_pass_clean_on_the_real_tree():
    report = run_lint(checks=["shapes"])
    assert report.exit_code() == 0, "\n" + report.render_text()
    assert tuple(report.checks) == ("shapes",)


def test_contracts_pass_clean_on_the_real_tree():
    report = run_lint(checks=["contracts"])
    assert report.exit_code() == 0, "\n" + report.render_text()


def test_unknown_check_rejected():
    with pytest.raises(ValueError, match="unknown check"):
        run_lint(checks=["bogus"])


def test_pass_findings_carry_registration_anchor(monkeypatch):
    """A seeded problem surfaces at api/registry.py:<line>."""
    from repro.devtools.lint.engine import default_root
    from repro.devtools.lint.passes import shapes

    problem = Problem("dtype-leak", "ST-HSL", "float32", "seeded leak")
    seeded = ModelReport("ST-HSL", "float32", problems=[problem])
    monkeypatch.setattr(shapes, "check_registry", lambda: [seeded])

    report = run_lint(checks=["shapes"])
    findings = [f for f in report.unsuppressed if f.rule == "dtype-promotion-leak"]
    assert len(findings) == 1
    relpath, anchors = shapes.registration_lines(default_root())
    assert findings[0].path == relpath == "api/registry.py"
    assert findings[0].line == anchors["ST-HSL"] > 1
    assert "seeded leak" in findings[0].message


def test_pass_suppressions_only_audited_when_pass_runs(tmp_path):
    planted = tmp_path / "mod.py"
    planted.write_text(
        "X = 1  # repro: ignore[dtype-promotion-leak] -- testing stale audit\n"
    )
    # Pass not requested: the suppression is dormant, not stale/unknown.
    quiet = run_lint(root=tmp_path)
    assert not any(f.rule == "stale-suppression" for f in quiet.unsuppressed)
    assert not any(f.rule == "unknown-rule" for f in quiet.unsuppressed)
    # Pass requested and yields no finding here: now it IS stale.
    audited = run_lint(root=tmp_path, checks=["shapes"])
    assert any(f.rule == "stale-suppression" for f in audited.unsuppressed)


def test_contract_surface_missing_is_loud(tmp_path):
    (tmp_path / "mod.py").write_text("X = 1\n")
    report = run_lint(root=tmp_path, checks=["contracts"])
    rules = {f.rule for f in report.unsuppressed}
    assert "contract-surface-missing" in rules


def test_contract_repo_root_is_found_by_docs_and_fixtures(tmp_path):
    """The repo root is the ancestor holding the surfaces the pass reads;
    the fixture check then runs against that tree's (empty) fixtures."""
    (tmp_path / "docs").mkdir()
    (tmp_path / "tests" / "serving" / "fixtures" / "rpc").mkdir(parents=True)
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text("X = 1\n")
    report = run_lint(root=package, checks=["contracts"])
    findings = report.unsuppressed
    assert not any(f.rule == "contract-surface-missing" for f in findings)
    assert any(
        f.rule == "rpc-fixture-schema" and f.path.endswith("predict_request.json")
        for f in findings
    )


def test_cli_check_flag(capsys):
    from repro.cli import main

    assert main(["lint", "--check", "shapes,contracts"]) == 0
    out = capsys.readouterr().out
    assert "clean: 0 unsuppressed" in out
    assert main(["lint", "--check", "nope"]) == 2
    assert "unknown check" in capsys.readouterr().out


def test_cli_json_includes_pass_rules(capsys):
    from repro.cli import main

    assert main(["lint", "--check", "shapes,contracts", "--format", "json"]) == 0
    import json

    payload = json.loads(capsys.readouterr().out)
    assert payload["checks"] == ["shapes", "contracts"]
    assert set(payload["rules"]) >= {
        "model-shape-contract",
        "dtype-promotion-leak",
        "broadcast-surprise",
        "error-code-bijection",
        "rpc-fixture-schema",
        "cli-docs-drift",
        "registry-docs-drift",
    }
