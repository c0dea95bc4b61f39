"""Forecaster estimator + versioned artifact round-trips."""

import json

import numpy as np
import pytest

from repro import nn
from repro.api import (
    ARTIFACT_SCHEMA,
    ARTIFACT_SCHEMA_V1,
    REGISTRY,
    ArtifactError,
    DataSpec,
    ExperimentBudget,
    Forecaster,
    RunSpec,
    migrate,
    read_artifact,
)
from repro.api.artifacts import validate_manifest
from repro.cli import main

BUDGET = ExperimentBudget(window=8, epochs=1, train_limit=4, seed=0)
DATASET = DataSpec(city="nyc", rows=4, cols=4, num_days=60, seed=0).load()


def _fitted(model="ST-HSL", **kwargs):
    return Forecaster(model, budget=BUDGET, hidden=6, **kwargs).fit(DATASET)


@pytest.fixture(scope="module", params=REGISTRY.names())
def zoo_forecaster(request):
    """Each registered model, fitted once for all its cases."""
    return _fitted(request.param)


def _tamper(path, out, **manifest_changes):
    """Rewrite an artifact with a modified manifest."""
    manifest, state = nn.load_archive(path)
    manifest.update(manifest_changes)
    manifest = {k: v for k, v in manifest.items() if v is not None}
    nn.save_archive(out, state, manifest)


class TestRoundTrip:
    @pytest.mark.parametrize("served_dtype", [None, "float32"])
    def test_every_model_round_trips(self, tmp_path, zoo_forecaster, served_dtype):
        path = tmp_path / "model.npz"
        zoo_forecaster.save(path)
        loaded = Forecaster.load(path, served_dtype=served_dtype)
        params = list(loaded.model.parameters())
        all_float32 = bool(params) and all(p.data.dtype == np.float32 for p in params)
        assert loaded.served_dtype == ("float32" if all_float32 else None)
        window = DATASET.tensor[:, 20:28, :]  # raw counts
        batch = np.stack([DATASET.tensor[:, t : t + 8, :] for t in (10, 20, 30)])
        for history in (window, batch):
            expected = zoo_forecaster.predict(history)
            got = loaded.predict(history)
            if loaded.served_dtype is None:
                assert np.array_equal(got, expected)
            else:
                assert np.abs(got - expected).max() <= 1e-4

    def test_manifest_carries_config_and_stats(self, tmp_path):
        forecaster = _fitted()
        path = tmp_path / "model.npz"
        manifest = forecaster.save(path)
        assert manifest["schema"] == ARTIFACT_SCHEMA
        assert manifest["model"] == "ST-HSL"
        assert manifest["geometry"] == {"rows": 4, "cols": 4, "num_categories": 4}
        assert manifest["normalization"]["mu"] == DATASET.mu
        assert manifest["normalization"]["sigma"] == DATASET.sigma
        assert manifest["build"]["hidden"] == 6
        assert manifest["training"]["epochs_run"] == 1
        artifact = read_artifact(path)
        assert artifact.model_name == "ST-HSL"
        assert set(artifact.state) == set(forecaster.model.state_dict())

    def test_loaded_forecaster_restores_budget_and_categories(self, tmp_path):
        forecaster = _fitted()
        path = tmp_path / "model.npz"
        forecaster.save(path)
        clone = Forecaster.load(path)
        assert clone.budget == BUDGET
        assert clone.categories == DATASET.categories
        assert clone.window == BUDGET.window


class TestRejection:
    def test_wrong_schema_version_rejected(self, tmp_path):
        forecaster = _fitted()
        path = tmp_path / "model.npz"
        forecaster.save(path)
        bad = tmp_path / "bad.npz"
        _tamper(path, bad, schema="repro.artifact/v999")
        with pytest.raises(ArtifactError, match="unsupported artifact schema"):
            Forecaster.load(bad)

    def test_missing_schema_rejected(self, tmp_path):
        forecaster = _fitted()
        path = tmp_path / "model.npz"
        forecaster.save(path)
        bad = tmp_path / "bad.npz"
        _tamper(path, bad, schema=None)
        with pytest.raises(ArtifactError):
            Forecaster.load(bad)

    def test_bare_state_dict_rejected_with_hint(self, tmp_path):
        forecaster = _fitted()
        path = tmp_path / "legacy.npz"
        nn.save_module(forecaster.model, path)  # old-style checkpoint
        with pytest.raises(ArtifactError, match="no manifest"):
            Forecaster.load(path)

    def test_truncated_manifest_rejected(self, tmp_path):
        forecaster = _fitted()
        path = tmp_path / "model.npz"
        forecaster.save(path)
        bad = tmp_path / "bad.npz"
        _tamper(path, bad, geometry=None)
        with pytest.raises(ArtifactError, match="missing required keys"):
            Forecaster.load(bad)


#: A row-band block as earlier writers stored it under the v2 ``shard`` key.
SHARD_BLOCK = {
    "index": 0,
    "count": 2,
    "row_start": 0,
    "row_stop": 2,
    "parent": {"rows": 4, "cols": 4, "num_categories": 4},
}


def _write_v1(forecaster, path):
    """Re-create a pre-v2 artifact exactly as the v1 writer laid it out."""
    manifest = {
        "schema": ARTIFACT_SCHEMA_V1,
        "model": forecaster.model_name,
        "build": {
            "window": forecaster.budget.window,
            "hidden": forecaster.hidden,
            "seed": forecaster.budget.seed,
            "overrides": dict(forecaster.overrides),
        },
        "geometry": forecaster.geometry.to_dict(),
        "normalization": {"mu": forecaster.mu, "sigma": forecaster.sigma},
        "categories": list(forecaster.categories),
        "budget": forecaster.budget.to_dict(),
        "training": forecaster.training_,
        "repro_version": "1.0.0",
    }
    nn.save_archive(path, forecaster.model.state_dict(), manifest)


class TestMigration:
    def test_v1_artifact_loads_and_serves_bitwise_identically(self, tmp_path):
        """PR 4 acceptance: a pre-v2 artifact loads through the migration
        path and predicts bitwise-equal to the forecaster that wrote it."""
        forecaster = _fitted()
        path = tmp_path / "legacy_v1.npz"
        _write_v1(forecaster, path)
        upgraded = Forecaster.load(path)
        history = DATASET.tensor[:, 20:28, :]
        assert np.array_equal(forecaster.predict(history), upgraded.predict(history))
        assert upgraded.served_dtype is None  # native dtype, as before v2

    def test_read_artifact_upgrades_v1_in_memory(self, tmp_path):
        forecaster = _fitted()
        path = tmp_path / "legacy_v1.npz"
        _write_v1(forecaster, path)
        artifact = read_artifact(path)
        assert artifact.manifest["schema"] == ARTIFACT_SCHEMA
        assert artifact.served_dtype is None and artifact.manifest["shard"] is None
        # the file itself is untouched
        raw_manifest, _ = nn.load_archive(path)
        assert raw_manifest["schema"] == ARTIFACT_SCHEMA_V1

    def test_migrate_is_idempotent_on_current_schema(self, tmp_path):
        forecaster = _fitted()
        path = tmp_path / "model.npz"
        manifest = forecaster.save(path)
        assert migrate(dict(manifest)) == manifest

    def test_migrate_rejects_unknown_and_missing_schemas(self):
        with pytest.raises(ArtifactError, match="unsupported artifact schema"):
            migrate({"schema": "repro.artifact/v999"})
        with pytest.raises(ArtifactError, match="no manifest"):
            migrate(None)

    def test_served_dtype_round_trips_and_is_applied(self, tmp_path):
        forecaster = _fitted()
        path = tmp_path / "served.npz"
        manifest = forecaster.save(path, served_dtype="float32")
        assert manifest["served_dtype"] == "float32"
        loaded = Forecaster.load(path)
        assert loaded.served_dtype == "float32"
        assert loaded.model.config.compute_dtype == "float32"
        history = DATASET.tensor[:, 20:28, :]
        assert np.allclose(forecaster.predict(history), loaded.predict(history), atol=1e-4)

    def test_explicit_served_dtype_overrides_manifest(self, tmp_path):
        forecaster = _fitted()
        path = tmp_path / "served.npz"
        forecaster.save(path, served_dtype="float32")
        loaded = Forecaster.load(path, served_dtype="float64")
        assert loaded.model.config.compute_dtype == "float64"

    @pytest.mark.parametrize("dtype", ["bfloat16", "float16"])
    def test_invalid_served_dtype_rejected_at_save(self, tmp_path, dtype):
        forecaster = _fitted()
        with pytest.raises(ArtifactError, match="served_dtype"):
            forecaster.save(tmp_path / "bad.npz", served_dtype=dtype)

    @pytest.mark.parametrize("model", ["ST-HSL", "HA"])
    def test_invalid_served_dtype_rejected_at_load(self, tmp_path, model):
        # HA's builder has no dtype knob, so without the up-front check the
        # request would quietly load at the native dtype instead.
        path = tmp_path / "model.npz"
        _fitted(model).save(path)
        with pytest.raises(ArtifactError, match="served_dtype"):
            Forecaster.load(path, served_dtype="float16")

    def test_migrate_maps_stored_float16_without_schema_bump(self, tmp_path):
        manifest = _fitted().save(tmp_path / "model.npz")
        legacy = dict(manifest, served_dtype="float16")
        assert migrate(legacy) == dict(manifest, served_dtype="float32")
        assert legacy["served_dtype"] == "float16"  # the caller's dict is untouched

    def test_stored_float16_loads_as_float32(self, tmp_path):
        """Artifacts written with the retired ``served_dtype: "float16"``
        always computed in float32; they now load at float32 with their
        weights as stored."""
        forecaster = _fitted()
        path = tmp_path / "served.npz"
        forecaster.save(path)
        legacy = tmp_path / "legacy_f16.npz"
        manifest, state = nn.load_archive(path)
        nn.save_archive(legacy, state, dict(manifest, served_dtype="float16"))
        assert read_artifact(legacy).served_dtype == "float32"
        loaded = Forecaster.load(legacy)
        assert loaded.served_dtype == "float32"
        assert loaded.model.config.compute_dtype == "float32"
        history = DATASET.tensor[:, 20:28, :]
        expected = Forecaster.load(path, served_dtype="float32").predict(history)
        assert np.array_equal(loaded.predict(history), expected)

    def test_shard_metadata_round_trips(self, tmp_path):
        """A file carrying a retired row-band ``shard`` block loads as a
        plain forecaster, and ``migrate-artifact`` keeps the block."""
        forecaster = _fitted()
        path = tmp_path / "model.npz"
        assert forecaster.save(path)["shard"] is None
        manifest, state = nn.load_archive(path)
        banded = tmp_path / "banded.npz"
        nn.save_archive(banded, state, dict(manifest, shard=SHARD_BLOCK))
        loaded = Forecaster.load(banded)
        history = DATASET.tensor[:, 20:28, :]
        assert np.array_equal(loaded.predict(history), forecaster.predict(history))
        migrated = tmp_path / "migrated.npz"
        assert main(["migrate-artifact", "--checkpoint", str(banded), "--out", str(migrated)]) == 0
        assert nn.load_archive(migrated)[0]["shard"] == SHARD_BLOCK

    def test_malformed_shard_metadata_rejected(self, tmp_path):
        manifest = _fitted().save(tmp_path / "model.npz")
        with pytest.raises(ArtifactError, match="shard"):
            validate_manifest(dict(manifest, shard={"index": 0}))
        with pytest.raises(ArtifactError, match="out of range"):
            validate_manifest(dict(manifest, shard=dict(SHARD_BLOCK, index=5)))


class TestEstimator:
    def test_unfitted_forecaster_refuses_predict_and_save(self, tmp_path):
        forecaster = Forecaster("ST-HSL", budget=BUDGET)
        with pytest.raises(RuntimeError, match="not fitted"):
            forecaster.predict(DATASET.tensor[:, :8, :])
        with pytest.raises(RuntimeError, match="not fitted"):
            forecaster.save(tmp_path / "x.npz")

    def test_unknown_model_fails_fast(self):
        with pytest.raises(KeyError):
            Forecaster("NotAModel")

    def test_batched_predict_matches_per_sample(self):
        forecaster = _fitted()
        batch = np.stack([DATASET.tensor[:, t : t + 8, :] for t in (10, 20, 30)])
        stacked = forecaster.predict(batch)
        singles = np.stack([forecaster.predict(w) for w in batch])
        assert np.allclose(stacked, singles)

    def test_statistical_fit_skips_gradient_loop(self):
        forecaster = _fitted("ARIMA")
        assert forecaster.training_["epochs_run"] == 0
        assert forecaster.evaluate(DATASET).overall()["mae"] > 0

    def test_evaluate_rejects_mismatched_geometry(self, tmp_path):
        forecaster = _fitted()
        other = DataSpec(city="nyc", rows=5, cols=5, num_days=60, seed=0).load()
        with pytest.raises(ValueError, match="does not match"):
            forecaster.evaluate(other)
        path = tmp_path / "model.npz"
        forecaster.save(path)
        with pytest.raises(ValueError, match="does not match"):
            Forecaster.load(path).evaluate(other)

    def test_evaluate_uses_stored_normalization(self):
        """evaluate routes through predict, so a loaded artifact's stored
        mu/sigma govern input scaling — consistent with predict() — and on
        the fit dataset the classic per-sample protocol is reproduced."""
        from repro.training import WindowDataset

        forecaster = _fitted()
        ours = forecaster.evaluate(DATASET)
        windows = WindowDataset(DATASET, BUDGET.window)
        samples = list(windows.samples("test"))
        per_sample = [windows.denormalize(forecaster.model.predict(s.window)) for s in samples]
        assert np.allclose(ours.predictions, np.stack(per_sample))
        assert np.array_equal(ours.targets, np.stack([s.raw_target for s in samples]))

    def test_zero_epoch_fit_records_no_best_epoch(self, tmp_path):
        """A fit that runs no epoch records None, not the trainer's
        sentinels (-1, inf), so the saved manifest stays strict JSON."""
        budget = ExperimentBudget(window=8, epochs=0, train_limit=4, seed=0)
        forecaster = Forecaster("ST-HSL", budget=budget, hidden=6).fit(DATASET)
        assert forecaster.training_["epochs_run"] == 0
        assert forecaster.training_["best_epoch"] is None
        assert forecaster.training_["best_val_mae"] is None
        path = tmp_path / "e0.npz"
        forecaster.save(path)
        json.dumps(read_artifact(path).manifest, allow_nan=False)


class TestRunSpec:
    def test_with_model_keeps_data_and_budget(self):
        base = RunSpec(data=DataSpec(rows=4, cols=4, num_days=60), budget=BUDGET)
        other = base.with_model("STGCN")
        assert other.model == "STGCN"
        assert other.data == base.data and other.budget == base.budget

    def test_forecaster_realises_spec(self):
        spec = RunSpec(model="STGCN", budget=BUDGET, hidden=6)
        forecaster = spec.forecaster()
        assert forecaster.model_name == "STGCN"
        assert forecaster.budget == BUDGET
