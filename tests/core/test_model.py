"""Integration tests for the assembled ST-HSL model."""

import numpy as np
import pytest

from repro import nn
from repro.core import STHSL, STHSLConfig, STHSLViews

RNG = np.random.default_rng(0)


def _cfg(**kwargs):
    base = dict(
        rows=4, cols=4, num_categories=2, window=8, dim=4, num_hyperedges=8,
        num_global_temporal_layers=2, dropout=0.0,
    )
    base.update(kwargs)
    return STHSLConfig(**base)


def _window(cfg, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((cfg.num_regions, cfg.window, cfg.num_categories))


def _target(cfg, seed=1):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((cfg.num_regions, cfg.num_categories))


def _views(model, window):
    """The views a ``B=1`` ``forward_batch`` of ``window`` fills."""
    views = STHSLViews()
    model.forward_batch(window[None], views)
    return views


class TestForward:
    def test_output_shapes(self):
        cfg = _cfg()
        model = STHSL(cfg, seed=0)
        views = STHSLViews()
        prediction = model.forward_batch(_window(cfg)[None], views)
        assert views.prediction is prediction
        assert prediction.shape == (1, 16, 2)
        assert views.local.shape == (1, 16, 8, 2, 4)
        assert views.global_nodes.shape == (1, 8, 32, 4)
        assert views.global_temporal.shape == (1, 8, 32, 4)
        assert views.nodes.shape == (1, 8, 32, 4)

    def test_wrong_geometry_raises(self):
        cfg = _cfg()
        model = STHSL(cfg, seed=0)
        with pytest.raises(ValueError):
            model(np.zeros((9, 8, 2)))

    def test_deterministic_in_eval(self):
        cfg = _cfg()
        model = STHSL(cfg, seed=0)
        window = _window(cfg)
        a = model.predict(window)
        b = model.predict(window)
        assert np.array_equal(a, b)

    def test_seed_determines_weights(self):
        cfg = _cfg()
        a, b = STHSL(cfg, seed=3), STHSL(cfg, seed=3)
        assert np.allclose(a.predict(_window(cfg)), b.predict(_window(cfg)))


class TestAblationVariants:
    def test_wo_hyper_has_no_global_branch(self):
        cfg = _cfg(use_hypergraph=False, use_global=False, use_infomax=False, use_contrastive=False)
        model = STHSL(cfg, seed=0)
        views = _views(model, _window(cfg))
        assert views.global_nodes is None
        assert views.prediction.shape == (1, 16, 2)

    def test_wo_local(self):
        cfg = _cfg(use_local=False, use_contrastive=False)
        model = STHSL(cfg, seed=0)
        views = _views(model, _window(cfg))
        assert views.local is None
        assert views.prediction.shape == (1, 16, 2)

    def test_wo_global_temporal_passthrough(self):
        cfg = _cfg(use_global_temporal=False)
        model = STHSL(cfg, seed=0)
        views = _views(model, _window(cfg))
        assert np.allclose(views.global_temporal.data, views.global_nodes.data)

    def test_fusion_path(self):
        cfg = _cfg(fusion=True, use_contrastive=False)
        model = STHSL(cfg, seed=0)
        assert model.fusion_layer is not None
        views = _views(model, _window(cfg))
        assert views.prediction.shape == (1, 16, 2)

    def test_wo_sconv_skips_spatial(self):
        cfg = _cfg(use_spatial_conv=False)
        model = STHSL(cfg, seed=0)
        assert model.spatial_encoder is None

    def test_wo_tconv_skips_temporal(self):
        cfg = _cfg(use_temporal_conv=False)
        model = STHSL(cfg, seed=0)
        assert model.temporal_encoder is None


class TestLoss:
    def test_loss_components_present(self):
        cfg = _cfg()
        model = STHSL(cfg, seed=0)
        loss = model.loss(_views(model, _window(cfg)), _target(cfg)[None])
        assert loss.prediction > 0
        assert loss.infomax > 0
        assert loss.contrastive > 0
        assert float(loss.total.data) == pytest.approx(
            loss.prediction
            + cfg.lambda_infomax * loss.infomax
            + cfg.lambda_contrastive * loss.contrastive,
            rel=1e-9,
        )

    def test_ssl_terms_zero_when_disabled(self):
        cfg = _cfg(use_infomax=False, use_contrastive=False)
        model = STHSL(cfg, seed=0)
        loss = model.loss(_views(model, _window(cfg)), _target(cfg)[None])
        assert loss.infomax == 0.0
        assert loss.contrastive == 0.0
        assert float(loss.total.data) == pytest.approx(loss.prediction)

    def test_all_parameters_receive_gradients(self):
        cfg = _cfg()
        model = STHSL(cfg, seed=0)
        model.loss(_views(model, _window(cfg)), _target(cfg)[None]).total.backward()
        missing = [name for name, p in model.named_parameters() if p.grad is None]
        assert missing == []

    def test_training_reduces_loss(self):
        cfg = _cfg()
        model = STHSL(cfg, seed=0)
        window, target = _window(cfg), _target(cfg)
        opt = nn.Adam(model.parameters(), lr=5e-3)
        first = None
        for step in range(30):
            model.train()
            loss = model.training_loss(window, target)
            if first is None:
                first = float(loss.data)
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert float(loss.data) < first


class TestInterpretation:
    def test_hyperedge_relevance_shape(self):
        cfg = _cfg()
        model = STHSL(cfg, seed=0)
        rel = model.hyperedge_relevance(_window(cfg))
        assert rel.shape == (cfg.window, cfg.num_hyperedges, cfg.num_regions * cfg.num_categories)
        assert np.allclose(rel.sum(axis=2), 1.0)

    @pytest.mark.parametrize("use_local", [True, False], ids=["local", "wo_local"])
    def test_relevance_scores_the_hypergraph_input(self, use_local):
        # Figure 8 explains what the hypergraph consumes: the spatial ->
        # temporal encoder output, or the raw embeddings in "w/o Local".
        # The spatial encoder's first layer convolves the raw window with
        # Eq 1 folded into its weight, as the forward runs it.
        cfg = _cfg(use_local=use_local, use_contrastive=use_local)
        model = STHSL(cfg, seed=0)
        window = _window(cfg)
        model.eval()
        with nn.no_grad():
            counts = model.embedding.counts(window[None])  # (C, 1, T, R)
            source = model.embedding(counts.transpose(1, 3, 2, 0))  # (1, R, T, C, d)
            if use_local:
                type_embedding = model.embedding.type_embedding
                source = model.temporal_encoder(
                    model.spatial_encoder(source, counts, type_embedding)
                )
            nodes = source.transpose(0, 2, 1, 3, 4).reshape(cfg.window, -1, cfg.dim)
        np.testing.assert_array_equal(
            model.hyperedge_relevance(window), model.hypergraph.relevance(nodes)
        )

    def test_relevance_requires_hypergraph(self):
        cfg = _cfg(use_hypergraph=False, use_global=False, use_infomax=False, use_contrastive=False)
        model = STHSL(cfg, seed=0)
        with pytest.raises(RuntimeError):
            model.hyperedge_relevance(_window(cfg))


class TestConvSeams:
    """The encoders call each layer's ``conv`` with an ``(N, C_in, *spatial)``
    input, the contract ``perfbench/layers._conv_flops`` reads FLOPs from
    (``args[0].shape``), and that input is a view over channel-major
    memory, which the conv kernel reads without a copy.  The first spatial
    layer instead calls ``nn.conv2d`` on the raw window, Eq 1 folded into
    its weight, so ``_conv_flops`` (which reads the ``C*d`` input channels
    of ``conv.weight``) never sees that ``C``-channel conv."""

    @pytest.mark.parametrize("grad", [True, False], ids=["forward_batch", "predict_batch"])
    def test_convs_get_channel_major_views(self, monkeypatch, grad):
        # Every axis differs: B 2, T 5, rows 3, cols 4, C 6, d 7.
        b, t, rows, cols, c, d = 2, 5, 3, 4, 6, 7
        cfg = _cfg(rows=rows, cols=cols, num_categories=c, window=t, dim=d)
        model = STHSL(cfg, seed=0)
        calls = []
        for conv in (nn.Conv2d, nn.Conv1d):
            monkeypatch.setattr(conv, "forward", self._spy(conv.forward, conv.__name__, calls))
        folded = []
        monkeypatch.setattr(nn, "conv2d", self._folded_spy(nn.conv2d, folded))
        windows = np.random.default_rng(0).standard_normal((b, rows * cols, t, c))
        if grad:
            model.forward_batch(windows)
        else:
            model.predict_batch(windows)
        r = rows * cols
        assert calls == [("Conv2d", (b * t, c * d, rows, cols), True)] * (
            cfg.num_spatial_layers - 1
        ) + [("Conv1d", (b * r, c * d, t), True)] * cfg.num_temporal_layers
        # The folded conv reads the window's channel-major (C, B*T, I, J)
        # memory in place: the view the conv kernel takes without a copy.
        assert folded == [((b * t, c, rows, cols), (c * d, c, 3, 3), True)]

    @staticmethod
    def _spy(forward, name, calls):
        def spy(conv, x):
            calls.append((name, x.shape, x.data.swapaxes(0, 1).flags.c_contiguous))
            return forward(conv, x)

        return spy

    @staticmethod
    def _folded_spy(conv2d, calls):
        def spy(x, weight, *args, **kwargs):
            calls.append((x.shape, weight.shape, x.data.swapaxes(0, 1).flags.c_contiguous))
            return conv2d(x, weight, *args, **kwargs)

        return spy


class TestSerialization:
    def test_state_roundtrip(self, tmp_path):
        cfg = _cfg()
        a, b = STHSL(cfg, seed=0), STHSL(cfg, seed=9)
        window = _window(cfg)
        assert not np.allclose(a.predict(window), b.predict(window))
        path = tmp_path / "sthsl.npz"
        nn.save_module(a, path)
        nn.load_module(b, path)
        assert np.allclose(a.predict(window), b.predict(window))


class TestNodeCacheLifecycle:
    """loss() consumes the views the caller's forward filled; views are
    never filled under an arena, whose buffers are recycled."""

    def test_loss_works_under_plain_no_grad(self):
        cfg = _cfg()
        model = STHSL(cfg, seed=0)
        model.eval()
        with nn.no_grad():
            loss = model.loss(_views(model, _window(cfg)), _target(cfg)[None])
        assert np.isfinite(float(loss.total.data))

    def test_predict_between_forward_and_loss_is_harmless(self):
        """The views live in the caller's frame, not on the module, so an
        interleaved (even concurrent) predict cannot clobber a training
        step's loss."""
        cfg = _cfg()
        model = STHSL(cfg, seed=0)
        model.train()
        views = _views(model, _window(cfg))
        reference = _views(model, _window(cfg))  # same weights, same window
        model.predict(_window(cfg, seed=3))  # arena-backed, must not interfere
        model.train()
        loss = model.loss(views, _target(cfg)[None])
        assert np.isfinite(float(loss.total.data))
        assert views.nodes is not None and reference.nodes is not None

    def test_loss_on_arena_backed_output_fails_fast(self):
        """Requesting views under ``use_arena`` raises before any compute."""
        cfg = _cfg()
        model = STHSL(cfg, seed=0)
        model.eval()
        views = STHSLViews()
        with nn.no_grad(), nn.use_arena(nn.BufferArena()):
            with pytest.raises(RuntimeError, match="use_arena"):
                model.forward_batch(_window(cfg)[None], views)
        assert views == STHSLViews()  # nothing was filled

    def test_training_after_predict_recovers(self):
        cfg = _cfg()
        model = STHSL(cfg, seed=0)
        model.predict(_window(cfg))
        model.train()
        loss = model.training_loss(_window(cfg), _target(cfg))
        loss.backward()
        assert float(loss.data) > 0
