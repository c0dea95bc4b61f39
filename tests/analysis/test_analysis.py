"""Tests for the analysis package: ablation configs, sweeps, interpretation,
efficiency and visualisation."""

import numpy as np
import pytest

from repro.analysis import (
    EFFICIENCY_MODELS,
    MULTIVIEW_VARIANTS,
    SSL_VARIANTS,
    HyperedgeCaseStudy,
    ascii_heatmap,
    format_density_histogram,
    format_table,
    time_epoch,
    top_regions_per_hyperedge,
)
from repro.api import REGISTRY, ExperimentBudget, Forecaster
from repro.data import density_histogram, load_city

BUDGET = ExperimentBudget(window=8, epochs=1, train_limit=4, seed=0)
DATASET = load_city("nyc", rows=4, cols=4, num_days=60, seed=0)


def _sthsl(**overrides):
    """ST-HSL as ``Forecaster("ST-HSL", budget=BUDGET, overrides=...)`` builds it."""
    return REGISTRY.build(
        "ST-HSL", dataset=DATASET, window=BUDGET.window, hidden=8, seed=BUDGET.seed, **overrides
    )


class TestVariantConfigs:
    def test_all_paper_variants_resolve(self):
        for variants in (SSL_VARIANTS, MULTIVIEW_VARIANTS):
            for overrides in variants.values():
                assert _sthsl(**overrides).config.num_regions == 16

    def test_wo_hyper_disables_everything_global(self):
        config = _sthsl(**SSL_VARIANTS["w/o Hyper"]).config
        assert not config.use_hypergraph
        assert not config.use_infomax
        assert not config.use_contrastive

    def test_wo_global_keeps_hypergraph(self):
        config = _sthsl(**SSL_VARIANTS["w/o Global"]).config
        assert config.use_hypergraph and not config.use_global

    def test_fusion_variant(self):
        config = _sthsl(**SSL_VARIANTS["Fusion w/o ConL"]).config
        assert config.fusion and not config.use_contrastive

    def test_every_variant_builds_and_runs(self):
        window = np.random.default_rng(0).standard_normal((16, 8, 4))
        for overrides in SSL_VARIANTS.values():
            assert _sthsl(**overrides).predict(window).shape == (16, 4)


class TestExperimentHarness:
    def test_statistical_fit_skips_training(self):
        forecaster = Forecaster("HA", budget=BUDGET).fit(DATASET)
        assert forecaster.training_["epochs_run"] == 0  # no gradient training
        assert set(forecaster.evaluate(DATASET).per_category()) == set(DATASET.categories)

    def test_sthsl_trains_under_the_budget(self):
        forecaster = Forecaster("ST-HSL", budget=BUDGET).fit(DATASET)
        assert forecaster.training_["epochs_run"] == BUDGET.epochs
        assert np.isfinite(forecaster.training_["best_val_mae"])

    def test_overrides_reach_the_sthsl_config(self):
        """The bench-scale defaults at hidden 8, and an override on top."""
        config = _sthsl().config
        assert (config.dim, config.num_hyperedges, config.num_global_temporal_layers) == (8, 32, 2)
        assert config.window == BUDGET.window
        assert _sthsl(dim=4).config.dim == 4


class TestInterpretation:
    def test_top_regions_shape_and_validity(self):
        relevance = np.random.default_rng(0).random((3, 5, 16 * 4))
        top = top_regions_per_hyperedge(relevance, num_regions=16, num_categories=4, k=3)
        assert top.shape == (3, 5, 3)
        assert top.max() < 16

    def test_top_regions_are_actually_top(self):
        relevance = np.zeros((1, 1, 8))
        relevance[0, 0, 5] = 1.0
        relevance[0, 0, 2] = 0.5
        top = top_regions_per_hyperedge(relevance, num_regions=8, num_categories=1, k=2)
        assert list(top[0, 0]) == [5, 2]

    def test_bad_factorisation_raises(self):
        with pytest.raises(ValueError):
            top_regions_per_hyperedge(np.zeros((1, 1, 7)), num_regions=4, num_categories=2)

    def test_functionality_alignment_detects_coupling(self):
        """Hyperedges binding crime-profile twins score higher POI
        similarity than random pairs when POI is coupled to crime."""
        from repro.analysis import functionality_alignment
        from repro.data import generate_poi_features

        rng = np.random.default_rng(0)
        profiles = rng.gamma(2.0, 5.0, size=(20, 4))
        # Make regions 0, 1, 2 crime-profile twins.
        profiles[1] = profiles[0] * 1.02
        profiles[2] = profiles[0] * 0.98
        poi = generate_poi_features(profiles, np.random.default_rng(1), noise=0.1)
        top_regions = np.tile(np.array([0, 1, 2]), (2, 4, 1))
        mate, rand = functionality_alignment(poi, top_regions, np.random.default_rng(2))
        assert mate > rand

    def test_case_study_from_model(self):
        model = _sthsl()
        window = DATASET.normalized()[:, :8, :]
        study = HyperedgeCaseStudy.from_model(model, window, DATASET.tensor, k=3)
        assert study.top_regions.shape[2] == 3
        assert np.isfinite(study.mate_correlation)
        heat = study.dependency_map(0, 0, DATASET.num_categories)
        assert heat.shape == (16,)


class TestEfficiency:
    def test_time_epoch_positive(self):
        model = _sthsl()
        assert time_epoch(model, DATASET, BUDGET) > 0

    def test_table5_model_list(self):
        assert "ST-HSL" in EFFICIENCY_MODELS
        assert len(EFFICIENCY_MODELS) == 10


class TestVisualization:
    def test_ascii_heatmap_dimensions(self):
        art = ascii_heatmap(np.arange(12.0), rows=3, cols=4)
        lines = art.splitlines()
        assert len(lines) == 3
        assert all(len(line) == 4 for line in lines)

    def test_ascii_heatmap_nan_marker(self):
        values = np.array([np.nan, 1.0, 2.0, 3.0])
        art = ascii_heatmap(values, rows=2, cols=2)
        assert "?" in art

    def test_ascii_heatmap_extremes(self):
        values = np.array([0.0, 0.0, 0.0, 100.0])
        art = ascii_heatmap(values, rows=2, cols=2)
        assert "@" in art and " " in art

    def test_format_table_alignment(self):
        table = format_table(["model", "mae"], [["A", 0.5], ["BB", 1.25]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert len(set(len(l) for l in lines)) == 1  # all lines same width

    def test_density_histogram_rendering(self):
        hist = density_histogram(DATASET.tensor)
        text = format_density_histogram(hist["edges"], hist["counts"], DATASET.categories)
        assert "(0.00, 0.25]" in text
        assert "Burglary" in text
