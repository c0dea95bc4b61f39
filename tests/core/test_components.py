"""Unit tests for each ST-HSL component (Eqs 1-7)."""

import numpy as np
import pytest

from repro import nn
from repro.core import (
    CrimeEmbedding,
    GlobalTemporalEncoder,
    HypergraphEncoder,
    HypergraphInfomax,
    SpatialConvEncoder,
    TemporalConvEncoder,
)
from repro.nn import Tensor
from repro.nn.gradcheck import gradcheck

RNG = np.random.default_rng(0)


def _rng():
    return np.random.default_rng(1)


class TestCrimeEmbedding:
    def test_shape(self):
        emb = CrimeEmbedding(num_categories=3, dim=5, rng=_rng())
        out = emb(RNG.standard_normal((4, 6, 3))[None])
        assert out.shape == (1, 4, 6, 3, 5)

    def test_eq1_scaling(self):
        """e_{r,t,c} = x_{r,t,c} · e_c exactly (Eq 1 after Z-score)."""
        emb = CrimeEmbedding(num_categories=2, dim=3, rng=_rng())
        windows = np.zeros((1, 1, 1, 2))
        windows[0, 0, 0, 0] = 2.0
        out = emb(windows).data[0]
        assert np.allclose(out[0, 0, 0], 2.0 * emb.type_embedding.data[0])
        assert np.allclose(out[0, 0, 1], 0.0)

    def test_gradients_reach_type_embedding(self):
        emb = CrimeEmbedding(num_categories=2, dim=3, rng=_rng())
        emb(RNG.standard_normal((2, 3, 2))[None]).sum().backward()
        assert emb.type_embedding.grad is not None


class TestSpatialConvEncoder:
    def _encoder(self, cross_category=True, layers=2):
        return SpatialConvEncoder(
            rows=3,
            cols=4,
            num_categories=2,
            dim=4,
            kernel_size=3,
            num_layers=layers,
            dropout=0.0,
            leaky_slope=0.2,
            cross_category=cross_category,
            rng=_rng(),
        )

    def test_shape_preserved(self):
        enc = self._encoder()
        x = Tensor(RNG.standard_normal((12, 5, 2, 4))[None])
        assert enc(x).shape == (1, 12, 5, 2, 4)

    def test_spatial_locality(self):
        """With 2 layers of 3x3 kernels the receptive field is 5x5: a
        perturbation at one corner must not affect the far corner of a
        big enough grid."""
        enc = SpatialConvEncoder(
            rows=8, cols=8, num_categories=1, dim=2, kernel_size=3, num_layers=2,
            dropout=0.0, leaky_slope=0.2, cross_category=True, rng=_rng(),
        )
        enc.eval()
        base = np.zeros((1, 64, 1, 1, 2))
        bumped = base.copy()
        bumped[0, 0] += 1.0  # region (0,0)
        out_base = enc(Tensor(base)).data[0]
        out_bumped = enc(Tensor(bumped)).data[0]
        far_corner = 63  # region (7,7), far outside the receptive field
        assert np.allclose(out_base[far_corner], out_bumped[far_corner])
        assert not np.allclose(out_base[0], out_bumped[0])

    def test_cross_category_mixing(self):
        """Full channel mixing lets category 0 influence category 1;
        the w/o C-Conv variant must not."""
        x_base = np.zeros((1, 12, 1, 2, 4))
        x_bump = x_base.copy()
        x_bump[..., 0, :] = 1.0  # perturb category 0 only

        mixed = self._encoder(cross_category=True)
        mixed.eval()
        delta_mixed = np.abs(
            mixed(Tensor(x_bump)).data[..., 1, :] - mixed(Tensor(x_base)).data[..., 1, :]
        ).max()
        assert delta_mixed > 0

        separate = self._encoder(cross_category=False)
        separate.eval()
        delta_sep = np.abs(
            separate(Tensor(x_bump)).data[..., 1, :] - separate(Tensor(x_base)).data[..., 1, :]
        ).max()
        assert delta_sep == pytest.approx(0.0, abs=1e-12)


class TestFoldedFirstSpatialLayer:
    """Given the raw window and the type embedding, the spatial encoder's
    first layer convolves the ``C``-channel window with Eq 1 folded into
    its weight; that must equal the generic layer on the ``C*d``-channel
    embedding ``E``, and its gradients must reach the conv weight, the
    bias and the type embedding."""

    C, D = 2, 3

    def _modules(self, cross_category):
        emb = CrimeEmbedding(num_categories=self.C, dim=self.D, rng=_rng())
        enc = SpatialConvEncoder(
            rows=3, cols=4, num_categories=self.C, dim=self.D, kernel_size=3, num_layers=1,
            dropout=0.0, leaky_slope=0.2, cross_category=cross_category, rng=_rng(),
        )
        windows = np.random.default_rng(2).standard_normal((2, 12, 5, self.C))
        return emb, enc, windows

    @staticmethod
    def _both(emb, enc, windows):
        embeddings = emb(windows)
        generic = enc(embeddings)
        folded = enc(embeddings, emb.counts(windows), emb.type_embedding)
        return generic, folded

    @pytest.mark.parametrize("cross_category", [True, False], ids=["c_conv", "wo_c_conv"])
    @pytest.mark.parametrize("mode", ["eval", "train"])
    def test_equals_the_generic_layer(self, cross_category, mode):
        emb, enc, windows = self._modules(cross_category)
        if mode == "eval":
            enc.eval()
            with nn.no_grad():
                generic, folded = self._both(emb, enc, windows)
        else:
            enc.train()
            generic, folded = self._both(emb, enc, windows)
            assert folded.requires_grad
        np.testing.assert_allclose(folded.data, generic.data, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("cross_category", [True, False], ids=["c_conv", "wo_c_conv"])
    def test_gradcheck(self, cross_category):
        emb, enc, windows = self._modules(cross_category)
        layer = enc.layers[0]
        convs = [layer.conv] if cross_category else list(layer.convs)
        params = [p for conv in convs for p in (conv.weight, conv.bias)] + [emb.type_embedding]
        weights = Tensor(np.random.default_rng(3).standard_normal((2, 12, 5, self.C, self.D)))
        gradcheck(
            lambda *_: enc(emb(windows), emb.counts(windows), emb.type_embedding) * weights,
            params,
        )


class TestTemporalConvEncoder:
    def _encoder(self):
        return TemporalConvEncoder(
            num_categories=2, dim=3, kernel_size=3, num_layers=2,
            dropout=0.0, leaky_slope=0.2, rng=_rng(),
        )

    def test_shape_preserved(self):
        enc = self._encoder()
        x = Tensor(RNG.standard_normal((5, 8, 2, 3))[None])
        assert enc(x).shape == (1, 5, 8, 2, 3)

    def test_temporal_locality(self):
        """Two k=3 layers see +-2 days: day 0 cannot affect day 7."""
        enc = self._encoder()
        enc.eval()
        base = np.zeros((1, 1, 10, 2, 3))
        bump = base.copy()
        bump[:, :, 0] += 1.0
        out_base = enc(Tensor(base)).data[0]
        out_bump = enc(Tensor(bump)).data[0]
        assert np.allclose(out_base[:, 7:], out_bump[:, 7:])
        assert not np.allclose(out_base[:, 0], out_bump[:, 0])

    def test_regions_independent(self):
        """Temporal convs never mix regions."""
        enc = self._encoder()
        enc.eval()
        base = np.zeros((1, 3, 6, 2, 3))
        bump = base.copy()
        bump[0, 0] += 1.0
        assert np.allclose(enc(Tensor(base)).data[0, 1:], enc(Tensor(bump)).data[0, 1:])


class TestHypergraphEncoder:
    def test_shape(self):
        enc = HypergraphEncoder(num_nodes=20, num_hyperedges=8, leaky_slope=0.2, rng=_rng())
        out = enc(Tensor(RNG.standard_normal((4, 20, 6))))
        assert out.shape == (4, 20, 6)

    def test_global_connectivity(self):
        """Any node can influence any other through hyperedge hubs —
        unlike grid convolution, reach is global in one round."""
        enc = HypergraphEncoder(num_nodes=30, num_hyperedges=8, leaky_slope=0.2, rng=_rng())
        base = np.zeros((1, 30, 4))
        bump = base.copy()
        bump[0, 0] = 5.0
        delta = np.abs(enc(Tensor(bump)).data - enc(Tensor(base)).data)
        assert (delta[0, 1:] > 0).any()  # influence beyond the perturbed node

    def test_corrupt_propagation_differs(self):
        enc = HypergraphEncoder(num_nodes=12, num_hyperedges=4, leaky_slope=0.2, rng=_rng())
        nodes = Tensor(RNG.standard_normal((2, 12, 3))[None])
        original = enc(nodes)
        corrupt = enc.propagate_corrupt(nodes, np.random.default_rng(3))
        assert not np.allclose(original.data, corrupt.data)

    def test_static_relevance_normalised(self):
        enc = HypergraphEncoder(num_nodes=10, num_hyperedges=5, leaky_slope=0.2, rng=_rng())
        rel = enc.relevance()
        assert rel.shape == (5, 10)
        assert np.allclose(rel.sum(axis=1), 1.0)

    def test_time_aware_relevance(self):
        enc = HypergraphEncoder(num_nodes=10, num_hyperedges=5, leaky_slope=0.2, rng=_rng())
        nodes = Tensor(RNG.standard_normal((3, 10, 4)))
        rel = enc.relevance(nodes)
        assert rel.shape == (3, 5, 10)
        assert np.allclose(rel.sum(axis=2), 1.0)
        # Different days have different embeddings -> different scores.
        assert not np.allclose(rel[0], rel[1])
        # A batch of windows scores each window as its own call does, with
        # as many days as hyperedges (T == H) and with fewer.
        for days in (5, 3):
            batch = RNG.standard_normal((2, days, 10, 4))
            expected = np.stack([enc.relevance(Tensor(window)) for window in batch])
            np.testing.assert_array_equal(enc.relevance(Tensor(batch)), expected)


class TestGlobalTemporalEncoder:
    def test_shape(self):
        enc = GlobalTemporalEncoder(
            dim=4, kernel_size=3, num_layers=4, dropout=0.0, leaky_slope=0.2, rng=_rng()
        )
        out = enc(Tensor(RNG.standard_normal((6, 10, 4))[None]))
        assert out.shape == (1, 6, 10, 4)

    def test_mixes_time(self):
        enc = GlobalTemporalEncoder(
            dim=2, kernel_size=3, num_layers=1, dropout=0.0, leaky_slope=0.2, rng=_rng()
        )
        enc.eval()
        base = np.zeros((1, 5, 3, 2))
        bump = base.copy()
        bump[0, 2] += 1.0
        delta = np.abs(enc(Tensor(bump)).data - enc(Tensor(base)).data)[0]
        assert (delta[1] > 0).any() and (delta[3] > 0).any()  # neighbours in time
        assert np.allclose(delta[0], 0.0)  # outside k=3 receptive field


class TestHypergraphInfomax:
    def test_loss_scalar_positive(self):
        infomax = HypergraphInfomax(dim=4, rng=_rng())
        original = Tensor(RNG.standard_normal((3, 8, 4)))
        corrupt = Tensor(RNG.standard_normal((3, 8, 4)))
        loss = infomax(original, corrupt, num_regions=4)
        assert loss.data.shape == ()
        assert loss.item() > 0

    def test_discriminator_learns_separation(self):
        """Training on fixed original/corrupt pairs drives the loss below
        the chance level log(2)."""
        rng = _rng()
        infomax = HypergraphInfomax(dim=4, rng=rng)
        original = Tensor(np.repeat(RNG.standard_normal((1, 1, 4)), 8, axis=1) + 0.05 * RNG.standard_normal((2, 8, 4)))
        corrupt = Tensor(-original.data + 0.05 * RNG.standard_normal((2, 8, 4)))
        opt = nn.Adam(infomax.parameters(), lr=0.05)
        for _ in range(100):
            opt.zero_grad()
            loss = infomax(original, corrupt, num_regions=4)
            loss.backward()
            opt.step()
        assert loss.item() < np.log(2.0)
