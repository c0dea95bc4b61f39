"""ModelPool: lazy loading, LRU policy, arena handoff, served dtype."""

import numpy as np
import pytest

from repro.api import ArtifactError, DataSpec, ExperimentBudget, Forecaster
from repro.serving import ModelPool

BUDGET = ExperimentBudget(window=8, epochs=1, train_limit=4, seed=0)
DATASET = DataSpec(city="nyc", rows=4, cols=4, num_days=60, seed=0).load()


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Three distinct fitted artifacts of the same geometry."""
    root = tmp_path_factory.mktemp("pool_artifacts")
    paths = []
    for index, model in enumerate(("ST-HSL", "STGCN", "HA")):
        fc = Forecaster(model, budget=BUDGET, hidden=6).fit(DATASET)
        path = root / f"{index}_{model.lower().replace('-', '_')}.npz"
        fc.save(path)
        paths.append(path)
    return paths


class TestLoading:
    def test_miss_loads_then_hit_returns_same_object(self, artifacts):
        pool = ModelPool(capacity=2)
        first = pool.get(artifacts[0])
        second = pool.get(artifacts[0])
        assert first is second
        stats = pool.stats()
        assert stats.loads == 1 and stats.hits == 1 and stats.size == 1

    def test_loaded_entry_predicts(self, artifacts):
        pool = ModelPool(capacity=2)
        fc = pool.get(artifacts[0])
        window = DATASET.tensor[:, 20:28, :]
        assert fc.predict(window).shape == (16, 4)

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            ModelPool(capacity=0)


class TestEviction:
    def test_lru_entry_evicted_at_capacity(self, artifacts):
        pool = ModelPool(capacity=2)
        pool.get(artifacts[0])
        pool.get(artifacts[1])
        pool.get(artifacts[0])  # touch 0 so 1 becomes LRU
        pool.get(artifacts[2])  # evicts 1
        assert artifacts[0] in pool and artifacts[2] in pool
        assert artifacts[1] not in pool
        assert pool.stats().evictions == 1

    def test_evicted_entry_reloads_on_next_get(self, artifacts):
        pool = ModelPool(capacity=1)
        a = pool.get(artifacts[0])
        pool.get(artifacts[1])
        b = pool.get(artifacts[0])
        assert a is not b  # fresh load
        assert pool.stats().loads == 3


class TestArenaHandoff:
    def test_evicted_arena_recycles_into_next_load(self, artifacts):
        pool = ModelPool(capacity=1)
        first = pool.get(artifacts[0])
        window = DATASET.tensor[:, 20:28, :]
        first.predict(window)  # populate the inference arena
        arena = first.model._inference_arena()
        assert arena.num_buffers > 0

        pool.get(artifacts[1])  # evicts first, harvesting its arena
        second = pool.get(artifacts[0])  # fresh load adopts a spare arena
        assert pool.stats().arena_handoffs >= 1
        assert second is not first
        assert second.model._inference_arena() is arena
        hits_before = arena.hits
        prediction = second.predict(window)
        assert arena.hits > hits_before  # the warm slabs are reused
        assert np.array_equal(prediction, first.predict(window))

    def test_handoff_preserves_predictions(self, artifacts):
        fresh = Forecaster.load(artifacts[0])
        pool = ModelPool(capacity=1)
        pool.get(artifacts[0]).predict(DATASET.tensor[:, 10:18, :])
        pool.get(artifacts[1])  # harvest arena
        recycled = pool.get(artifacts[0])  # adopt it
        window = DATASET.tensor[:, 30:38, :]
        assert np.array_equal(recycled.predict(window), fresh.predict(window))


class TestServedDtype:
    def test_pool_policy_applied_best_effort(self, artifacts):
        pool = ModelPool(capacity=3, served_dtype="float32")
        sthsl = pool.get(artifacts[0])
        ha = pool.get(artifacts[2])
        assert sthsl.served_dtype == "float32"
        assert sthsl.model.config.compute_dtype == "float32"
        assert ha.served_dtype is None  # HA's builder has no dtype knob

    def test_unservable_dtype_rejected_at_construction(self):
        # Refused up front: a per-load failure would quarantine healthy
        # artifacts, and dtype-less builders would load natively.
        with pytest.raises(ArtifactError, match="served_dtype"):
            ModelPool(capacity=1, served_dtype="float16")

    def test_float32_entry_stays_close_to_native(self, artifacts):
        native = Forecaster.load(artifacts[0])
        served = ModelPool(capacity=1, served_dtype="float32").get(artifacts[0])
        window = DATASET.tensor[:, 20:28, :]
        assert np.allclose(native.predict(window), served.predict(window), atol=1e-4)
