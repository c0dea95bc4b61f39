"""Registry completeness and capability contracts."""

import numpy as np
import pytest

from repro.api import REGISTRY, ModelGeometry, ModelRegistry
from repro.baselines import BASELINE_NAMES, build_baseline
from repro.data import load_city

GEOMETRY = ModelGeometry(rows=4, cols=4, num_categories=4)
WINDOW = 10


class TestCompleteness:
    def test_every_table3_name_is_registered(self):
        for name in BASELINE_NAMES:
            assert name in REGISTRY

    def test_sthsl_and_reference_are_registered(self):
        assert "ST-HSL" in REGISTRY
        assert "HA" in REGISTRY

    @pytest.mark.parametrize("name", [*BASELINE_NAMES, "ST-HSL", "HA"])
    def test_name_resolves_builds_and_predicts(self, name):
        """Acceptance: every Table III name builds and predicts on a tiny
        geometry straight from the registry."""
        model = REGISTRY.build(name, geometry=GEOMETRY, window=WINDOW, hidden=8, seed=0)
        window = np.random.default_rng(0).standard_normal((GEOMETRY.num_regions, WINDOW, 4))
        prediction = model.predict(window)
        assert prediction.shape == (GEOMETRY.num_regions, 4)
        assert np.isfinite(prediction).all()

    def test_unknown_name_lists_registered(self):
        with pytest.raises(KeyError, match="ST-HSL"):
            REGISTRY.spec("NotAModel")


class TestCapabilities:
    def test_statistical_models_skip_training(self):
        for name in ("ARIMA", "HA"):
            assert not REGISTRY.spec(name).requires_training

    def test_batched_specs_implement_duck_type(self):
        for spec in REGISTRY:
            model = spec.build(GEOMETRY, window=WINDOW, hidden=8, seed=0)
            if spec.supports_batching:
                assert hasattr(model, "training_loss_batch") and hasattr(model, "predict_batch")
        for name in ("ST-HSL", "STGCN", "DeepCrime", "GWN", "DCRNN"):
            assert REGISTRY.spec(name).supports_batching, name


class TestGraphFreePredictIdentity:
    """The no_grad + arena fast path is numerically invisible: for every
    registered model, ``predict`` must equal the graph-building (gradient
    recording) forward pass bit for bit."""

    @pytest.mark.parametrize("name", [*BASELINE_NAMES, "ST-HSL", "HA"])
    def test_predict_matches_graph_forward_bitwise(self, name):
        model = REGISTRY.build(name, geometry=GEOMETRY, window=WINDOW, hidden=8, seed=0)
        window = np.random.default_rng(7).standard_normal((GEOMETRY.num_regions, WINDOW, 4))
        # Graph-building reference: eval mode (dropout off) but gradients
        # recording — the op path predict skipped before the fast path.
        model.eval()
        reference = model.forward(window)
        reference = getattr(reference, "prediction", reference).data
        for _ in range(2):  # second call runs on recycled arena buffers
            fast = model.predict(window)
            assert np.array_equal(reference, fast), name

    @pytest.mark.parametrize("name", [spec.name for spec in REGISTRY if spec.supports_batching])
    def test_predict_batch_matches_graph_forward_bitwise(self, name):
        model = REGISTRY.build(name, geometry=GEOMETRY, window=WINDOW, hidden=8, seed=0)
        windows = np.random.default_rng(8).standard_normal((3, GEOMETRY.num_regions, WINDOW, 4))
        model.eval()
        reference = model.forward_batch(windows)
        reference = getattr(reference, "prediction", reference).data
        for _ in range(2):
            fast = model.predict_batch(windows)
            assert np.array_equal(reference, fast), name

    def test_parameterless_models_have_no_parameters(self):
        for name in ("ARIMA", "HA"):
            model = REGISTRY.build(name, geometry=GEOMETRY, window=WINDOW)
            assert list(model.parameters()) == []


class TestGeometry:
    def test_of_dataset_matches_manual(self):
        dataset = load_city("nyc", rows=4, cols=4, num_days=60, seed=0)
        assert ModelGeometry.of(dataset) == GEOMETRY

    def test_adjacency_matches_dataset_grid(self):
        """Region adjacency depends on grid topology only, so the unit-bbox
        reconstruction must agree with the dataset's geographic grid."""
        dataset = load_city("nyc", rows=4, cols=4, num_days=60, seed=0)
        assert np.array_equal(GEOMETRY.adjacency(), dataset.grid.adjacency_matrix())
        assert np.allclose(GEOMETRY.normalized_adjacency(), dataset.grid.normalized_adjacency())

    def test_dict_round_trip(self):
        assert ModelGeometry.from_dict(GEOMETRY.to_dict()) == GEOMETRY


class TestRegistration:
    def test_duplicate_name_rejected(self):
        registry = ModelRegistry()

        @registry.register("X")
        def build_x(geometry, *, window, hidden, seed, **overrides):
            return None

        with pytest.raises(ValueError, match="already registered"):
            registry.register("X")(build_x)

    def test_build_requires_dataset_or_geometry(self):
        with pytest.raises(ValueError, match="dataset or a geometry"):
            REGISTRY.build("ST-HSL", window=WINDOW)


class TestDeprecationShim:
    def test_build_baseline_delegates_to_registry(self):
        dataset = load_city("nyc", rows=4, cols=4, num_days=60, seed=0)
        with pytest.warns(DeprecationWarning):
            legacy = build_baseline("STGCN", dataset, window=WINDOW, hidden=8, seed=0)
        fresh = REGISTRY.build("STGCN", dataset=dataset, window=WINDOW, hidden=8, seed=0)
        assert set(legacy.state_dict()) == set(fresh.state_dict())
        window = np.random.default_rng(1).standard_normal((16, WINDOW, 4))
        assert np.allclose(legacy.predict(window), fresh.predict(window))
