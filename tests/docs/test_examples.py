"""Example smoke tests: every walkthrough runs, with zero deprecations.

The examples are the first code a reader copies, so they must (a) run
end to end at a reduced scale and (b) never touch deprecated surface —
``warnings.simplefilter("error", DeprecationWarning)`` turns any
``DeprecationWarning`` an example triggers into a hard failure.
"""

import importlib.util
import sys
import warnings
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def load_example(name):
    spec = importlib.util.spec_from_file_location(f"examples.{name}", EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(autouse=True)
def deprecations_are_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        yield


def test_quickstart_runs_clean(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the example writes/removes its artifact
    quickstart = load_example("quickstart")
    quickstart.main(rows=4, cols=4, num_days=60, epochs=1, train_limit=4)
    out = capsys.readouterr().out
    assert "artifact round-trip OK" in out
    assert "served" in out and "req/s" in out
    assert not (tmp_path / "sthsl_quickstart.npz").exists()  # cleaned up


def test_real_data_ingestion_runs_clean(capsys):
    ingestion = load_example("real_data_ingestion")
    ingestion.main(rows=4, cols=4, num_days=60, epochs=1, train_limit=4)
    out = capsys.readouterr().out
    assert "portal export" in out
    assert "test metrics (masked)" in out
    assert "MAE=" in out


# Output each analysis example must reach when smoked at 4x4, 60 days,
# window 8 and one epoch of four windows.
ANALYSIS_EXAMPLES = {
    "compare_baselines": ("ranking (overall masked MAE", "best model:"),
    "significance_testing": ("paired t-test", "per-category paired t-test p-values"),
    "sparse_region_analysis": ("trained: no self-supervision", "by region density cohort"),
    "hyperedge_interpretation": ("trained ST-HSL", "crime-pattern correlation"),
}


@pytest.mark.parametrize("name", ANALYSIS_EXAMPLES)
def test_analysis_example_runs_clean(name, capsys):
    load_example(name).main(rows=4, cols=4, num_days=60, window=8, epochs=1, train_limit=4)
    out = capsys.readouterr().out
    for text in ANALYSIS_EXAMPLES[name]:
        assert text in out
