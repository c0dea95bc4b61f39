"""Batched-vs-sequential equivalence: the contract of the batched forward.

One batched ``training_loss_batch`` over ``B`` stacked windows must
produce the same parameter gradients as ``B`` accumulated per-sample
backward passes divided by ``B`` (Algorithm 1's accumulate-and-average
step, which the trainer's one batched loop reproduces).  Dropout is
disabled so both paths draw identical randomness;
the corruption RNG consumes one permutation per window in batch order on
both paths by construction.
"""

import numpy as np
import pytest

from repro import nn
from repro.api import REGISTRY
from repro.core import STHSL, STHSLConfig
from repro.data import load_city
from repro.training import Trainer, WindowDataset
from repro.training import trainer as trainer_module
from repro.training.metrics import masked_mae

ATOL = 1e-8
BATCH = 3


def _cfg(**overrides):
    base = dict(
        rows=4, cols=4, num_categories=2, window=8, dim=4, num_hyperedges=8,
        num_global_temporal_layers=2, dropout=0.0,
    )
    base.update(overrides)
    return STHSLConfig(**base)


def _data(cfg, batch=BATCH, seed=7):
    rng = np.random.default_rng(seed)
    windows = rng.standard_normal((batch, cfg.num_regions, cfg.window, cfg.num_categories))
    targets = rng.standard_normal((batch, cfg.num_regions, cfg.num_categories))
    return windows, targets


def _sequential_grads(cfg, windows, targets):
    model = STHSL(cfg, seed=0)
    model.train()
    for window, target in zip(windows, targets):
        model.training_loss(window, target).backward()
    return {name: p.grad / len(windows) for name, p in model.named_parameters()}


def _batched_grads(cfg, windows, targets):
    model = STHSL(cfg, seed=0)
    model.train()
    model.training_loss_batch(windows, targets).backward()
    return {name: p.grad for name, p in model.named_parameters()}


class TestGradientEquivalence:
    def test_full_model(self):
        cfg = _cfg()
        windows, targets = _data(cfg)
        sequential = _sequential_grads(cfg, windows, targets)
        batched = _batched_grads(cfg, windows, targets)
        assert set(sequential) == set(batched)
        for name in sequential:
            assert sequential[name] is not None, name
            np.testing.assert_allclose(
                batched[name], sequential[name], atol=ATOL, rtol=0, err_msg=name
            )

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(fusion=True),
            dict(use_global=False),
            dict(use_local=False, use_contrastive=False),
            dict(use_hypergraph=False, use_global=False, use_infomax=False, use_contrastive=False),
            dict(corruption="noise"),
            dict(cross_category=False),
        ],
        ids=["fusion", "wo-global", "wo-local", "wo-hyper", "noise-corruption", "wo-cconv"],
    )
    def test_ablation_variants(self, overrides):
        cfg = _cfg(**overrides)
        windows, targets = _data(cfg)
        sequential = _sequential_grads(cfg, windows, targets)
        batched = _batched_grads(cfg, windows, targets)
        for name in sequential:
            np.testing.assert_allclose(
                batched[name], sequential[name], atol=ATOL, rtol=0, err_msg=name
            )

    def test_predictions_identical(self):
        cfg = _cfg()
        windows, _ = _data(cfg)
        model = STHSL(cfg, seed=0)
        per_sample = np.stack([model.predict(w) for w in windows])
        stacked = model.predict_batch(windows)
        # Not bitwise: BLAS may pick different gemm kernels per batch size.
        np.testing.assert_allclose(per_sample, stacked, atol=1e-12, rtol=0)

    def test_loss_values_match(self):
        cfg = _cfg()
        windows, targets = _data(cfg)
        m1 = STHSL(cfg, seed=0)
        m1.train()
        per_sample = np.mean(
            [float(m1.training_loss(w, t).data) for w, t in zip(windows, targets)]
        )
        m2 = STHSL(cfg, seed=0)
        m2.train()
        batched = float(m2.training_loss_batch(windows, targets).data)
        assert batched == pytest.approx(per_sample, abs=ATOL)


class TestTrainerEpoch:
    """The trainer's one epoch loop takes the steps of Algorithm 1's
    per-sample reference: for each group of ``batch_size`` windows in the
    shuffled order, average the per-sample gradients, clip them at norm
    5 and take one Adam step.  The tiny clip makes the clip bind; the
    state (BatchNorm running statistics included) pins the visit order."""

    @pytest.fixture(scope="class")
    def windows(self):
        dataset = load_city("nyc", rows=4, cols=4, num_days=60, seed=0)
        return WindowDataset(dataset, window=6)

    @staticmethod
    def _build(name, windows):
        if name == "ST-HSL":
            cfg = _cfg(window=6, num_categories=windows.dataset.num_categories, dropout=0.0)
            return STHSL(cfg, seed=0)
        return REGISTRY.build(name, dataset=windows.dataset, window=6, hidden=4, seed=0)

    @staticmethod
    def _reference_epoch(model, windows, batch_size, limit, clip):
        order = [d for b in windows.train_batches(np.random.default_rng(0), 1, limit=limit) for d in b.days]
        samples = {s.day: s for s in windows.samples("train")}
        optimizer = nn.Adam(model.parameters(), lr=1e-3)
        model.train()
        for start in range(0, len(order), batch_size):
            group = order[start : start + batch_size]
            optimizer.zero_grad()
            for day in group:
                model.training_loss(samples[day].window, samples[day].target).backward()
            for param in optimizer.params:
                if param.grad is not None:  # ST-ResNet's unused period weight
                    param.grad /= len(group)
            nn.clip_grad_norm(optimizer.params, clip)
            optimizer.step()

    @pytest.mark.parametrize("clip", [trainer_module.CLIP_NORM, 1e-3], ids=["clip5", "tiny-clip"])
    @pytest.mark.parametrize("name", ["ST-HSL", "SVM", "ST-ResNet"])
    def test_epoch_matches_per_sample_reference(self, name, clip, windows, monkeypatch):
        monkeypatch.setattr(trainer_module, "CLIP_NORM", clip)
        model = self._build(name, windows)
        Trainer(model, lr=1e-3, batch_size=4, seed=0)._train_epoch(windows, train_limit=10)
        reference = self._build(name, windows)
        self._reference_epoch(reference, windows, batch_size=4, limit=10, clip=clip)
        trained, expected = model.state_dict(), reference.state_dict()
        assert trained.keys() == expected.keys()
        for key in trained:
            np.testing.assert_allclose(trained[key], expected[key], atol=1e-12, rtol=0, err_msg=key)

    def test_validate_is_masked_mae_of_per_window_predict(self, windows):
        model = self._build("ST-HSL", windows)
        errors = []
        for sample in windows.samples("val"):
            value = masked_mae(windows.denormalize(model.predict(sample.window)), sample.raw_target)
            if not np.isnan(value):
                errors.append(value)
        assert Trainer(model, seed=0).validate(windows) == pytest.approx(np.mean(errors), abs=1e-12)
