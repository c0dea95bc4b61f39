"""Cross-module integration tests: the full pipeline end to end.

events CSV -> grid mapping -> tensorisation -> windows -> training ->
evaluation -> interpretation, on a tiny but complete configuration.
"""

import numpy as np
import pytest

from repro import nn
from repro.analysis import HyperedgeCaseStudy
from repro.api import ExperimentBudget, Forecaster
from repro.core import STHSL, STHSLConfig
from repro.data import (
    NYC_CONFIG,
    SyntheticCrimeGenerator,
    events_to_tensor,
    load_city,
    read_events_csv,
    write_events_csv,
)
from repro.training import Trainer, WindowDataset


class TestFullPipeline:
    def test_csv_to_trained_model(self, tmp_path):
        """The complete journey a downstream user would take with real
        crime report files."""
        # 1. Raw event stream on disk.
        config = NYC_CONFIG.scaled(rows=4, cols=4, num_days=60)
        generator = SyntheticCrimeGenerator(config, seed=0)
        path = tmp_path / "reports.csv"
        write_events_csv(generator.generate_events(), path)

        # 2. Ingest + tensorise.
        tensor = events_to_tensor(
            read_events_csv(path), generator.grid, config.start_date,
            config.num_days, config.categories,
        )
        assert tensor.shape == (16, 60, 4)
        assert tensor.sum() > 0

        # 3. Wrap into a dataset (reusing load_city's split/stats logic
        #    via the same seed gives an identical tensor).
        dataset = load_city("nyc", rows=4, cols=4, num_days=60, seed=0)
        assert np.array_equal(dataset.tensor, tensor)

        # 4. Train a small ST-HSL and verify the loop runs.
        forecaster = Forecaster(
            "ST-HSL",
            budget=ExperimentBudget(window=8, epochs=2, train_limit=10, lr=2e-3, seed=0),
            hidden=4,
            overrides={"num_hyperedges": 8, "num_global_temporal_layers": 1},
        ).fit(dataset)
        assert forecaster.training_["epochs_run"] == 2

        # 5. Evaluate and interpret.
        evaluation = forecaster.evaluate(dataset)
        assert np.isfinite(evaluation.overall()["mae"])
        sample = next(WindowDataset(dataset, window=8).samples("test"))
        study = HyperedgeCaseStudy.from_model(forecaster.model, sample.window, dataset.tensor)
        assert study.top_regions.shape[1] == 8

    def test_checkpoint_resume_training(self, tmp_path):
        """Training can stop, checkpoint, reload and continue."""
        dataset = load_city("nyc", rows=4, cols=4, num_days=60, seed=0)
        config = STHSLConfig(
            rows=4, cols=4, num_categories=4, window=8, dim=4,
            num_hyperedges=8, num_global_temporal_layers=1,
        )
        windows = WindowDataset(dataset, window=8)

        model = STHSL(config, seed=0)
        Trainer(model, seed=0).fit(windows, epochs=1, train_limit=5)
        path = tmp_path / "ckpt.npz"
        nn.save_module(model, path)

        resumed = STHSL(config, seed=99)
        nn.load_module(resumed, path)
        result = Trainer(resumed, seed=1).fit(windows, epochs=1, train_limit=5)
        assert np.isfinite(result.best_val_mae)

    def test_same_budget_same_results(self):
        """The experiment harness is fully deterministic given a seed."""
        budget = ExperimentBudget(window=8, epochs=1, train_limit=5, seed=7)
        dataset = load_city("chicago", rows=4, cols=4, num_days=60, seed=1)
        runs = [
            Forecaster("STGCN", budget=budget).fit(dataset).evaluate(dataset).overall()["mae"]
            for _ in range(2)
        ]
        assert runs[0] == pytest.approx(runs[1], rel=1e-12)

    def test_statistical_and_deep_models_share_evaluation(self):
        """Both model families produce comparable evaluation artefacts."""
        budget = ExperimentBudget(window=8, epochs=1, train_limit=5, seed=0)
        dataset = load_city("nyc", rows=4, cols=4, num_days=60, seed=0)
        ha = Forecaster("HA", budget=budget).fit(dataset).evaluate(dataset)
        deep = Forecaster("DeepCrime", budget=budget).fit(dataset).evaluate(dataset)
        assert ha.predictions.shape == deep.predictions.shape
        assert set(ha.per_category()) == set(deep.per_category())
