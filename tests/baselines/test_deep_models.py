"""Tests for the deep baselines: shapes, gradients, and each model's
signature mechanism."""

import numpy as np
import pytest

from repro import nn
from repro.api import REGISTRY
from repro.baselines import BASELINE_NAMES
from repro.data import load_city
from repro.nn import Tensor

DATASET = load_city("nyc", rows=4, cols=4, num_days=60, seed=0)
WINDOW = 14
DEEP_NAMES = [n for n in BASELINE_NAMES if n not in ("ARIMA",)]


def build_baseline(name, dataset, window, hidden=16, seed=0):
    return REGISTRY.build(name, dataset=dataset, window=window, hidden=hidden, seed=seed)


def _sample(seed=0):
    rng = np.random.default_rng(seed)
    window = rng.standard_normal((DATASET.num_regions, WINDOW, DATASET.num_categories))
    target = rng.standard_normal((DATASET.num_regions, DATASET.num_categories))
    return window, target


class TestAllBaselines:
    @pytest.mark.parametrize("name", list(BASELINE_NAMES) + ["HA"])
    def test_prediction_shape(self, name):
        model = build_baseline(name, DATASET, window=WINDOW, hidden=8, seed=0)
        window, _ = _sample()
        assert model.predict(window).shape == (16, 4)

    @pytest.mark.parametrize("name", DEEP_NAMES)
    def test_gradients_flow_to_all_parameters(self, name):
        model = build_baseline(name, DATASET, window=WINDOW, hidden=8, seed=0)
        window, target = _sample()
        model.train()
        loss = model.training_loss(window, target)
        loss.backward()
        missing = [p_name for p_name, p in model.named_parameters() if p.grad is None]
        assert missing == [], f"{name}: no grad for {missing}"

    @pytest.mark.parametrize("name", DEEP_NAMES)
    def test_few_steps_reduce_loss(self, name):
        model = build_baseline(name, DATASET, window=WINDOW, hidden=8, seed=0)
        window, target = _sample()
        opt = nn.Adam(model.parameters(), lr=5e-3)
        model.train()
        first = float(model.training_loss(window, target).data)
        for _ in range(25):
            opt.zero_grad()
            loss = model.training_loss(window, target)
            loss.backward()
            opt.step()
        assert float(loss.data) < first, f"{name}: loss did not decrease"

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            build_baseline("LSTM-9000", DATASET, window=WINDOW)


class TestSignatureMechanisms:
    def test_gwn_adaptive_adjacency_is_stochastic_matrix(self):
        model = build_baseline("GWN", DATASET, window=WINDOW, hidden=8, seed=0)
        adj = model.adaptive_adjacency().data
        assert adj.shape == (16, 16)
        assert np.allclose(adj.sum(axis=1), 1.0)
        assert np.all(adj >= 0)

    def test_agcrn_adaptive_adjacency_is_stochastic_matrix(self):
        model = build_baseline("AGCRN", DATASET, window=WINDOW, hidden=8, seed=0)
        adj = model.adaptive_adjacency().data
        assert np.allclose(adj.sum(axis=1), 1.0)

    def test_mtgnn_topk_sparsification(self):
        model = build_baseline("MTGNN", DATASET, window=WINDOW, hidden=8, seed=0)
        adj = model.learned_adjacency().data
        # After top-k masking + softmax, dominant mass sits on <= k entries;
        # the masked positions share a uniform floor from softmax(0).
        top_k = model.top_k
        sorted_rows = np.sort(adj, axis=1)[:, ::-1]
        assert np.all(sorted_rows[:, top_k:] <= sorted_rows[:, :1])

    def test_dmstgcn_slots_produce_different_graphs(self):
        model = build_baseline("DMSTGCN", DATASET, window=WINDOW, hidden=8, seed=0)
        a = model.dynamic_adjacency(0).data
        b = model.dynamic_adjacency(3).data
        assert not np.allclose(a, b)

    def test_dcrnn_supports_are_row_stochastic(self):
        from repro.baselines.dcrnn import random_walk_supports

        supports = random_walk_supports(DATASET.grid.adjacency_matrix())
        for support in supports:
            assert np.allclose(support.sum(axis=1), 1.0)

    def test_stresnet_uses_weekly_period_lags(self):
        model = build_baseline("ST-ResNet", DATASET, window=WINDOW, hidden=8, seed=0)
        assert model.period_days == [7, 14]

    def test_stdn_periodic_attention_lags(self):
        """A 14-day window gives STDN one weekly lag (t-7)."""
        model = build_baseline("STDN", DATASET, window=WINDOW, hidden=8, seed=0)
        window, _ = _sample()
        assert model.predict(window).shape == (16, 4)

    def test_stmetanet_regions_get_distinct_weights(self):
        model = build_baseline("ST-MetaNet", DATASET, window=WINDOW, hidden=8, seed=0)
        generated = model.meta_mlp(model.meta_knowledge).data
        assert not np.allclose(generated[0], generated[1])

    def test_stshn_static_incidence_not_trainable(self):
        model = build_baseline("STSHN", DATASET, window=WINDOW, hidden=8, seed=0)
        names = [n for n, _ in model.named_parameters()]
        assert not any("incidence" in n for n in names)

    def test_deepcrime_attention_weights_normalised(self):
        from repro.nn import functional as F

        model = build_baseline("DeepCrime", DATASET, window=WINDOW, hidden=8, seed=0)
        window, _ = _sample()
        model.eval()
        region_features = model.region_embed.expand_dims(1)
        region_tiled = region_features * Tensor(np.ones((1, WINDOW, 1)))
        inputs = nn.concatenate([Tensor(window), region_tiled], axis=-1)
        states, _ = model.gru(inputs)
        scores = model.attn_proj(states).tanh() @ model.attn_vector
        weights = F.softmax(scores, axis=1)
        assert np.allclose(weights.data.sum(axis=1), 1.0)


@pytest.mark.parametrize("name", DEEP_NAMES)
class TestBatchedBaselines:
    """Every baseline that trains runs on the trainer's one batched path:
    batched-native models through their own ``forward_batch``, the rest
    through ``ForecastModel``'s per-window default.  Either way one
    batched step must match the model's own per-sample execution (the
    contract ST-HSL's equivalence suite locks in tests/core), which also
    pins SVM's L2 term to once per step and ST-ResNet's BatchNorm to
    per-image statistics."""

    def _model(self, name, seed=0):
        return build_baseline(name, DATASET, window=WINDOW, hidden=8, seed=seed)

    def test_predict_batch_matches_per_sample(self, name):
        model = self._model(name)
        rng = np.random.default_rng(3)
        batch = rng.standard_normal((5, DATASET.num_regions, WINDOW, DATASET.num_categories))
        stacked = model.predict_batch(batch)
        singles = np.stack([model.predict(w) for w in batch])
        assert stacked.shape == (5, 16, 4)
        assert np.allclose(stacked, singles, atol=1e-12)

    def test_batched_loss_is_mean_of_per_sample_losses(self, name):
        model = self._model(name)
        rng = np.random.default_rng(4)
        windows = rng.standard_normal((3, DATASET.num_regions, WINDOW, DATASET.num_categories))
        targets = rng.standard_normal((3, DATASET.num_regions, DATASET.num_categories))
        model.eval()  # none of these use dropout, but keep the paths aligned
        batched = float(model.training_loss_batch(windows, targets).data)
        singles = [float(model.training_loss(w, t).data) for w, t in zip(windows, targets)]
        assert batched == pytest.approx(np.mean(singles), rel=1e-12)

    def test_batched_gradients_match_accumulated(self, name):
        rng = np.random.default_rng(5)
        windows = rng.standard_normal((4, DATASET.num_regions, WINDOW, DATASET.num_categories))
        targets = rng.standard_normal((4, DATASET.num_regions, DATASET.num_categories))

        batched = self._model(name)
        loss = batched.training_loss_batch(windows, targets)
        loss.backward()

        sequential = self._model(name)
        for w, t in zip(windows, targets):
            sequential.training_loss(w, t).backward()

        for (p_name, p_batched), (_, p_seq) in zip(
            batched.named_parameters(), sequential.named_parameters()
        ):
            assert p_seq.grad is not None, f"{name}: no grad for {p_name}"
            assert np.allclose(p_batched.grad, p_seq.grad / len(windows), atol=1e-10), p_name
