"""Semantic-pass tests: the abstract interpreter and the contract checker.

Three layers, mirroring the implementation:

* the **full matrix** — every registered model x {6x6, 16x16} x
  {native, float32} interprets cleanly (the same sweep `repro lint
  --check shapes` gates CI on);
* **seeded violations** — toy models with a deliberate shape break,
  dtype leak, broadcast coincidence, and capability-flag lie, each
  detected with the right problem kind and, through the lint pass,
  the right rule id anchored at a real ``path:line``;
* **transfer-rule agreement** — the abstract conv rules must predict
  the exact output shape/dtype of the concrete ``kernels.py`` conv
  kernel, mixed input/weight dtypes included.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.api.registry import REGISTRY, ModelGeometry, ModelSpec
from repro.devtools import run_lint
from repro.devtools.check import (
    BATCH_SENTINELS,
    AbstractArray,
    SymDim,
    Trace,
    abstract_input,
    check_model,
    check_registry,
)
from repro.devtools.check.interpret import ModelReport, Problem
from repro.nn import Tensor, ops

pytestmark = pytest.mark.lint_smoke

GEOMETRIES = ((6, 6), (16, 16))
MODES = ("native", "float32")


def _geometry(rows, cols):
    return ModelGeometry(rows=rows, cols=cols, num_categories=4)


# ---------------------------------------------------------------------
# The full matrix: 17 models x 2 geometries x 2 dtype modes.
# ---------------------------------------------------------------------


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("rows,cols", GEOMETRIES)
@pytest.mark.parametrize("name", REGISTRY.names())
def test_model_interprets_cleanly(name, rows, cols, mode):
    spec = REGISTRY.spec(name)
    report = check_model(spec, _geometry(rows, cols), window=8, hidden=8, mode=mode)
    if report.skipped:
        # Mirrors Forecaster.load: only builders with a compute_dtype
        # knob have a float32 serving mode to check.
        assert mode == "float32"
        assert report.skip_reason == "builder does not accept compute_dtype"
        return
    assert report.ok, "\n".join(p.describe() for p in report.problems)
    assert report.trace is not None


def test_check_registry_covers_the_full_matrix():
    reports = check_registry()
    assert len(reports) == len(REGISTRY.names()) * len(GEOMETRIES) * len(MODES)
    assert all(r.ok for r in reports)
    # Batched models must have been driven at both sentinels.
    batched = [r for r in reports if REGISTRY.spec(r.model).supports_batching]
    assert batched, "expected supports_batching models in the registry"


# ---------------------------------------------------------------------
# SymDim algebra.
# ---------------------------------------------------------------------


def test_symdim_tracks_conv_geometry():
    T = SymDim(8, "T")
    out = (T + 2 * 1 - 3) // 1 + 1  # same-padded k=3 stride-1 conv
    assert int(out) == 8
    assert str(out) == "(T+2-3)//1+1"
    assert out.symbolic


def test_symdim_concrete_arithmetic_stays_plain():
    R = SymDim(36, "R")
    assert repr(R - R + 36) != "R"  # int fallthrough keeps correctness
    assert int(R * 2) == 72
    assert not SymDim(5).symbolic


def test_symdim_is_an_int_everywhere():
    B = SymDim(3, "B")
    assert isinstance(B, int)
    assert np.zeros((B, 2)).shape == (3, 2)


# ---------------------------------------------------------------------
# Seeded violations: each problem kind detected on a toy model.
# ---------------------------------------------------------------------


class _ShapeBroken:
    """Reduces over the wrong axis: (R, T, C) -> (R, T), not (R, C)."""

    def eval(self):
        return self

    def forward(self, window):
        return np.mean(window, axis=2)


class _DtypeLeaky:
    """float32 path that matmuls against a float64 constant."""

    def __init__(self, num_categories):
        self._w = np.zeros((num_categories, num_categories), dtype=np.float64)

    def eval(self):
        return self

    def forward(self, window):
        xf = window.astype(np.float32)
        return xf[:, -1, :] @ self._w  # promotes back to float64


class _BroadcastCoincidence:
    """Aligns a T-derived dim with an R-derived dim (equal only here)."""

    def eval(self):
        return self

    def forward(self, window):
        t = np.sum(window, axis=(0, 2))  # (T,)
        r = np.sum(window, axis=(1, 2))  # (R,)
        _ = t + r  # only legal when window == num_regions
        return np.mean(window, axis=1)


class _FlagLiar:
    """Declares supports_batching but ships no forward_batch."""

    def eval(self):
        return self

    def forward(self, window):
        return np.mean(window, axis=1)


class _BatchConcretiser(_FlagLiar):
    """forward_batch whose output batch dim is hard-coded, not symbolic."""

    def forward_batch(self, windows):
        return np.zeros(
            (BATCH_SENTINELS[0], windows.shape[1], windows.shape[3]), dtype=np.float64
        )


def _spec(model_cls, name="toy", accepts_dtype=False, **flags):
    def build(geometry, *, window, hidden, seed, **overrides):
        if not accepts_dtype and "compute_dtype" in overrides:
            raise TypeError("no compute_dtype knob")
        try:
            return model_cls(geometry.num_categories)
        except TypeError:
            return model_cls()

    return ModelSpec(name=name, builder=build, **flags)


def test_shape_break_detected():
    report = check_model(_spec(_ShapeBroken), _geometry(6, 6))
    kinds = {p.kind for p in report.problems}
    assert kinds == {"shape"}
    assert "(R, T) != expected (R, C)" in report.problems[0].message


def test_dtype_leak_detected_only_in_float32_mode():
    spec = _spec(_DtypeLeaky, accepts_dtype=True)
    leaky = check_model(spec, _geometry(6, 6), mode="float32")
    assert [p.kind for p in leaky.problems] == ["dtype-leak"]
    assert "promotes to float64 in float32 mode" in leaky.problems[0].message
    native = check_model(spec, _geometry(6, 6))
    assert native.ok  # promotion to the native dtype is not a leak


def test_broadcast_coincidence_detected_and_symbol_aware():
    # window == num_regions makes T and R numerically equal on 6x6.
    report = check_model(_spec(_BroadcastCoincidence), _geometry(6, 6), window=36)
    assert [p.kind for p in report.problems] == ["broadcast"]
    assert "only by coincidence" in report.problems[0].message
    # When the values differ, the add is an outright shape error instead —
    # the coincidence detector only speaks when numpy would stay silent.
    honest = check_model(_spec(_BroadcastCoincidence), _geometry(6, 6), window=8)
    assert [p.kind for p in honest.problems] == ["shape"]


def test_capability_flag_without_forward_batch_detected():
    report = check_model(_spec(_FlagLiar, supports_batching=True), _geometry(6, 6))
    assert [p.kind for p in report.problems] == ["capability"]
    assert "no forward_batch" in report.problems[0].message


def test_unadvertised_forward_batch_detected():
    report = check_model(
        _spec(_BatchConcretiser, supports_batching=False), _geometry(6, 6)
    )
    assert any(
        p.kind == "capability" and "supports_batching=False" in p.message
        for p in report.problems
    )


def test_batch_concretisation_caught_by_second_sentinel():
    report = check_model(
        _spec(_BatchConcretiser, supports_batching=True), _geometry(6, 6)
    )
    capability = [p for p in report.problems if p.kind == "capability"]
    assert capability, "hard-coded batch size must fail at the other sentinel"
    assert any("supports_batching=True is not honoured" in p.message for p in capability)


# ---------------------------------------------------------------------
# Transfer-rule agreement with the concrete conv kernel.
# ---------------------------------------------------------------------


@pytest.mark.parametrize("w_dtype", [np.float32, np.float64])
@pytest.mark.parametrize("stride,padding", [(1, 1), (2, 0), (2, 1)])
def test_conv2d_transfer_matches_kernel(w_dtype, stride, padding):
    x = np.linspace(0, 1, 2 * 3 * 8 * 8, dtype=np.float32).reshape(2, 3, 8, 8)
    w = np.full((5, 3, 3, 3), 0.1, dtype=w_dtype)
    b = np.zeros(5, dtype=np.float32)
    with nn.no_grad():
        concrete = ops.conv2d(Tensor(x), Tensor(w), Tensor(b), stride, padding)
        abstract = ops.conv2d(
            Tensor(abstract_input(x.shape, x.dtype, Trace())),
            Tensor(w),
            Tensor(b),
            stride,
            padding,
        )
    assert tuple(map(int, abstract.shape)) == concrete.shape
    assert abstract.data.dtype == concrete.data.dtype


@pytest.mark.parametrize("w_dtype", [np.float32, np.float64])
@pytest.mark.parametrize("stride,padding,dilation", [(1, 1, 1), (1, 2, 2), (2, 0, 1)])
def test_conv1d_transfer_matches_kernel(w_dtype, stride, padding, dilation):
    x = np.linspace(0, 1, 2 * 3 * 16, dtype=np.float32).reshape(2, 3, 16)
    w = np.full((4, 3, 3), 0.1, dtype=w_dtype)
    with nn.no_grad():
        concrete = ops.conv1d(Tensor(x), Tensor(w), None, stride, padding, dilation)
        abstract = ops.conv1d(
            Tensor(abstract_input(x.shape, x.dtype, Trace())),
            Tensor(w),
            None,
            stride,
            padding,
            dilation,
        )
    assert tuple(map(int, abstract.shape)) == concrete.shape
    assert abstract.data.dtype == concrete.data.dtype


def test_conv2d_symbolic_width_survives():
    trace = Trace()
    W = SymDim(8, "W")
    x = Tensor(abstract_input((1, 3, W, W), np.float64, trace))
    w = Tensor(np.zeros((2, 3, 3, 3)))
    with nn.no_grad():
        out = ops.conv2d(x, w, None, 1, 1)
    assert str(out.shape[2]) == "(W+2-3)//1+1"
    assert int(out.shape[2]) == 8


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
    """A seeded interpreter problem surfaces at api/registry.py:<line>."""
    import repro.devtools.check as check_pkg
    from repro.devtools.lint.engine import default_root
    from repro.devtools.lint.passes.shapes import registration_lines

    problem = Problem("dtype-leak", "ST-HSL", "6x6", "float32", "seeded leak")
    seeded = ModelReport("ST-HSL", (6, 6), "float32", problems=[problem])
    monkeypatch.setattr(check_pkg, "check_registry", lambda: [seeded])

    report = run_lint(checks=["shapes"])
    findings = [f for f in report.unsuppressed if f.rule == "dtype-promotion-leak"]
    assert len(findings) == 1
    relpath, anchors = registration_lines(default_root())
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
        "capability-flag-drift",
        "error-code-bijection",
        "rpc-fixture-schema",
        "cli-docs-drift",
        "registry-docs-drift",
    }
