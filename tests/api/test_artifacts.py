"""Forecaster estimator + versioned artifact round-trips."""

import json

import numpy as np
import pytest

from repro import nn
from repro.api import (
    ARTIFACT_SCHEMA,
    ARTIFACT_SCHEMA_V1,
    ArtifactError,
    DataSpec,
    ExperimentBudget,
    Forecaster,
    RunSpec,
    migrate,
    read_artifact,
)

BUDGET = ExperimentBudget(window=8, epochs=1, train_limit=4, seed=0)
DATASET = DataSpec(city="nyc", rows=4, cols=4, num_days=60, seed=0).load()


def _fitted(model="ST-HSL", **kwargs):
    return Forecaster(model, budget=BUDGET, hidden=6, **kwargs).fit(DATASET)


def _tamper(path, out, **manifest_changes):
    """Rewrite an artifact with a modified manifest."""
    manifest, state = nn.load_archive(path)
    manifest.update(manifest_changes)
    manifest = {k: v for k, v in manifest.items() if v is not None}
    nn.save_archive(out, state, manifest)


class TestRoundTrip:
    def test_predictions_bitwise_identical_after_reload(self, tmp_path):
        forecaster = _fitted()
        path = tmp_path / "model.npz"
        forecaster.save(path)
        clone = Forecaster.load(path)
        history = DATASET.tensor[:, 20:28, :]  # raw counts
        original = forecaster.predict(history)
        reloaded = clone.predict(history)
        assert (original == reloaded).all()

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

    def test_baseline_artifact_round_trips(self, tmp_path):
        forecaster = _fitted("STGCN")
        path = tmp_path / "stgcn.npz"
        forecaster.save(path)
        clone = Forecaster.load(path)
        assert clone.model_name == "STGCN"
        history = DATASET.tensor[:, 30:38, :]
        assert (forecaster.predict(history) == clone.predict(history)).all()

    def test_parameterless_model_round_trips(self, tmp_path):
        forecaster = _fitted("HA")
        path = tmp_path / "ha.npz"
        forecaster.save(path)
        clone = Forecaster.load(path)
        history = DATASET.tensor[:, 10:18, :]
        assert (forecaster.predict(history) == clone.predict(history)).all()


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
        assert artifact.served_dtype is None and artifact.shard is None
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
        forecaster = _fitted()
        shard = {
            "index": 0,
            "count": 2,
            "row_start": 0,
            "row_stop": 2,
            "parent": {"rows": 4, "cols": 4, "num_categories": 4},
        }
        path = tmp_path / "shard.npz"
        forecaster.save(path, shard=shard)
        loaded = Forecaster.load(path)
        assert loaded.shard == shard

    def test_malformed_shard_metadata_rejected(self, tmp_path):
        forecaster = _fitted()
        with pytest.raises(ArtifactError, match="shard"):
            forecaster.save(tmp_path / "bad.npz", shard={"index": 0})
        with pytest.raises(ArtifactError, match="out of range"):
            forecaster.save(
                tmp_path / "bad.npz",
                shard={
                    "index": 5,
                    "count": 2,
                    "row_start": 0,
                    "row_stop": 2,
                    "parent": {"rows": 4, "cols": 4, "num_categories": 4},
                },
            )


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
        the fit dataset the classic evaluation protocol is reproduced."""
        from repro.training import WindowDataset, evaluate_model

        forecaster = _fitted()
        ours = forecaster.evaluate(DATASET)
        classic = evaluate_model(forecaster.model, WindowDataset(DATASET, BUDGET.window))
        assert np.allclose(ours.predictions, classic.predictions)
        assert np.array_equal(ours.targets, classic.targets)


class TestRunSpec:
    def test_json_round_trip(self):
        spec = RunSpec(
            model="ST-HSL",
            data=DataSpec(city="chicago", rows=5, cols=5, num_days=80, seed=3),
            budget=ExperimentBudget(window=9, epochs=2, train_limit=6, patience=1, seed=3),
            hidden=4,
            overrides={"num_hyperedges": 16},
        )
        payload = json.loads(json.dumps(spec.to_dict()))
        assert RunSpec.from_dict(payload) == spec

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
