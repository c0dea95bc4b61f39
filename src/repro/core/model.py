"""The full ST-HSL model (paper §III, Figure 3, Algorithm 1).

Wires together the crime embedding layer (Eq 1), multi-view
spatial-temporal convolution encoder (Eqs 2–3), hypergraph global
dependency modelling (Eqs 4–5), the dual-stage self-supervised learning
paradigm (Eqs 6–8), the prediction head (Eq 9) and the joint loss
(Eq 10).  Every ablation variant of Table IV and Figure 5 is expressible
through :class:`~repro.core.config.STHSLConfig` switches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import nn
from ..nn import Tensor
from ..nn import functional as F
from ..training.interface import ForecastModel
from .config import STHSLConfig
from .embedding import CrimeEmbedding
from .global_temporal import GlobalTemporalEncoder
from .hypergraph import HypergraphEncoder
from .infomax import HypergraphInfomax
from .spatial_conv import SpatialConvEncoder
from .temporal_conv import TemporalConvEncoder

__all__ = ["STHSL", "STHSLViews", "STHSLLoss"]


@dataclass
class STHSLViews:
    """The forward's intermediate views, read by the joint loss and Figure 8.

    The caller builds one and passes it to :meth:`STHSL.forward_batch`,
    which fills it.  It lives in the caller's frame, never on the module,
    so a concurrent predict from another thread cannot clobber a training
    step's views between its forward and its loss.  A field is None when
    its branch is disabled.
    """

    prediction: Tensor | None = None  # (B, R, C), in normalised units
    #: H^(T): (B, R, T, C, d), a view over the temporal encoder's
    #: channel-major (C, d, B, R, T) memory.
    local: Tensor | None = None
    global_nodes: Tensor | None = None  # Γ^(R): (B, T, RC, d)
    global_temporal: Tensor | None = None  # Γ^(T): (B, T, RC, d)
    #: Hypergraph input node embeddings (B, T, RC, d), consumed by
    #: loss()'s corrupt-propagation term and by hyperedge_relevance.
    nodes: Tensor | None = None


@dataclass
class STHSLLoss:
    """Joint loss decomposition (Eq 10, with λ3 handled by the optimiser)."""

    total: Tensor
    prediction: float
    infomax: float
    contrastive: float


class STHSL(ForecastModel):
    """Spatial-Temporal Hypergraph Self-Supervised Learning model.

    A :class:`~repro.training.interface.ForecastModel`: ``forward_batch``
    returns the ``(B, R, C)`` prediction, and ``training_loss_batch`` adds
    the self-supervised terms of Eq 10, which read the forward's
    intermediate views (:class:`STHSLViews`).
    """

    def __init__(self, config: STHSLConfig, seed: int = 0):
        super().__init__()
        self.config = config
        rng = np.random.default_rng(seed)
        self._corrupt_rng = np.random.default_rng(seed + 1)
        cfg = config
        # Parameters (and therefore the whole graph) are created in the
        # configured compute dtype; float32 halves memory traffic on the
        # conv/matmul hot paths at some precision cost.
        with nn.dtype_scope(cfg.compute_dtype):
            self._build(cfg, rng)

    def _build(self, cfg: STHSLConfig, rng: np.random.Generator) -> None:
        self.embedding = CrimeEmbedding(cfg.num_categories, cfg.dim, rng)

        if cfg.use_local and cfg.use_spatial_conv:
            self.spatial_encoder = SpatialConvEncoder(
                cfg.rows,
                cfg.cols,
                cfg.num_categories,
                cfg.dim,
                cfg.kernel_size,
                cfg.num_spatial_layers,
                cfg.dropout,
                cfg.leaky_slope,
                cfg.cross_category,
                rng,
            )
        else:
            self.spatial_encoder = None

        if cfg.use_local and cfg.use_temporal_conv:
            self.temporal_encoder = TemporalConvEncoder(
                cfg.num_categories,
                cfg.dim,
                cfg.kernel_size,
                cfg.num_temporal_layers,
                cfg.dropout,
                cfg.leaky_slope,
                rng,
            )
        else:
            self.temporal_encoder = None

        if cfg.use_hypergraph:
            self.hypergraph = HypergraphEncoder(
                cfg.num_regions * cfg.num_categories,
                cfg.num_hyperedges,
                cfg.leaky_slope,
                rng,
            )
        else:
            self.hypergraph = None

        if cfg.use_hypergraph and cfg.use_global_temporal:
            self.global_temporal = GlobalTemporalEncoder(
                cfg.dim,
                cfg.kernel_size,
                cfg.num_global_temporal_layers,
                cfg.dropout,
                cfg.leaky_slope,
                rng,
            )
        else:
            self.global_temporal = None

        if cfg.use_hypergraph and cfg.use_infomax:
            self.infomax = HypergraphInfomax(cfg.dim, rng)
        else:
            self.infomax = None

        # Eq 9's W_{d'} projection; only heads on reachable prediction
        # paths are created so every parameter participates in training.
        self.global_head = (
            nn.Linear(cfg.dim, 1, rng) if cfg.use_hypergraph and cfg.use_global and not cfg.fusion else None
        )
        local_predicts = cfg.use_local and not cfg.fusion and not (cfg.use_global and cfg.use_hypergraph)
        self.local_head = nn.Linear(cfg.dim, 1, rng) if local_predicts else None
        if cfg.fusion:
            self.fusion_layer = nn.Linear(2 * cfg.dim, cfg.dim, rng)
            self.fusion_head = nn.Linear(cfg.dim, 1, rng)
        else:
            self.fusion_layer = None
            self.fusion_head = None

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------
    def forward_batch(self, windows: np.ndarray, views: STHSLViews | None = None) -> Tensor:
        """Run a stacked batch of normalised windows ``(B, R, T, C)`` to ``(B, R, C)``.

        One vectorized pass: the convolutional encoders fold the batch into
        their image/sequence axes, the hypergraph broadcasts over it, so a
        batch costs a handful of large numpy calls instead of ``B`` python
        graph traversals.  The local branch stays channel-major from Eq 1
        to the hypergraph, so the whole forward makes two full-size layout
        copies: spatial to temporal order, and into the hypergraph's
        ``(B, T, RC, d)``.

        ``views``, when given, is filled with the intermediate views the
        joint loss reads.  Requesting them under an active arena raises
        ``RuntimeError``: the arena recycles those buffers when its scope
        exits.
        """
        if views is not None and nn.active_arena() is not None:
            raise RuntimeError(
                "forward_batch was asked for views inside use_arena, whose "
                "buffers are recycled at scope exit; run it outside the arena"
            )
        cfg = self.config
        windows = np.asarray(windows)
        if windows.ndim != 4:
            raise ValueError(f"expected a (B, R, T, C) batch, got shape {windows.shape}")
        b, r, t, c = windows.shape
        if (r, c) != (cfg.num_regions, cfg.num_categories):
            raise ValueError(
                f"window shape {windows.shape[1:]} incompatible with config "
                f"(R={cfg.num_regions}, C={cfg.num_categories})"
            )

        # The one transpose of the window: Eq 1 reads it, and so does the
        # first spatial layer, which folds Eq 1 into its conv.
        counts = self.embedding.counts(windows)  # (C, B, T, R)
        embeddings = self.embedding(counts.transpose(1, 3, 2, 0))  # (B, R, T, C, d) view

        # ----- Local branch: multi-view spatial-temporal convolutions -----
        local: Tensor | None = None
        if cfg.use_local:
            local = embeddings
            if self.spatial_encoder is not None:
                local = self.spatial_encoder(local, counts, self.embedding.type_embedding)
            if self.temporal_encoder is not None:
                local = self.temporal_encoder(local)

        # ----- Global branch: hypergraph + temporal relation encoding -----
        # Per the architecture of Figure 3 (and the released reference
        # code), the hypergraph consumes the multi-view convolution output
        # when the local encoder is active, falling back to the raw crime
        # embeddings in the "w/o Local" ablation.
        nodes: Tensor | None = None
        global_nodes: Tensor | None = None
        global_temporal: Tensor | None = None
        if self.hypergraph is not None:
            source = local if local is not None else embeddings
            nodes = source.transpose(0, 2, 1, 3, 4).reshape(b, t, r * c, cfg.dim)
            global_nodes = self.hypergraph(nodes)
            global_temporal = (
                self.global_temporal(global_nodes)
                if self.global_temporal is not None
                else global_nodes
            )

        prediction = self._predict_head(local, global_temporal, b, r, t, c)
        if views is not None:
            views.prediction = prediction
            views.local = local
            views.global_nodes = global_nodes
            views.global_temporal = global_temporal
            views.nodes = nodes
        return prediction

    def _predict_head(
        self,
        local: Tensor | None,
        global_temporal: Tensor | None,
        b: int,
        r: int,
        t: int,
        c: int,
    ) -> Tensor:
        """Eq 9: mean-pool the window embeddings and project to a scalar.

        The local view is pooled only on the branches that read it.
        """
        cfg = self.config
        global_pooled = (
            global_temporal.mean(axis=1).reshape(b, r, c, cfg.dim)
            if global_temporal is not None
            else None
        )

        if cfg.fusion and local is not None and global_pooled is not None:
            fused = nn.concatenate([local.mean(axis=2), global_pooled], axis=-1)
            hidden = self.fusion_layer(fused).leaky_relu(cfg.leaky_slope)
            return self.fusion_head(hidden).squeeze(-1)
        if cfg.use_global and global_pooled is not None:
            return self.global_head(global_pooled).squeeze(-1)
        if local is None:
            raise RuntimeError("no active prediction branch")
        return self.local_head(local.mean(axis=2)).squeeze(-1)

    # ------------------------------------------------------------------
    # Joint objective
    # ------------------------------------------------------------------
    def loss(self, views: STHSLViews, targets: np.ndarray) -> STHSLLoss:
        """Joint loss (Eq 10): prediction + λ1·L^(I) + λ2·L^(C).

        ``views`` is what :meth:`forward_batch` filled for a stacked batch,
        and ``targets`` the normalised next-day matrices ``(B, R, C)``.
        Every term is a mean over samples, so the batched loss gradient
        equals the average of the per-sample loss gradients (the
        equivalence tier-1 tests lock this).  The weight-decay term
        λ3‖Θ‖² is applied by the optimiser.
        """
        cfg = self.config
        targets = np.asarray(targets, dtype=views.prediction.dtype)
        pred_loss = F.mse_loss(views.prediction, targets, reduction="mean")
        total = pred_loss
        infomax_value = 0.0
        contrastive_value = 0.0

        if self.infomax is not None and views.global_nodes is not None:
            # Propagate over a corrupt (region-shuffled) structure (§III-D1);
            # the corrupt path stays differentiable so the incidence matrix
            # also learns from negative samples, as in Deep Graph Infomax.
            corrupt = self.hypergraph.propagate_corrupt(
                views.nodes,
                self._corrupt_rng,
                strategy=cfg.corruption,
                noise_scale=cfg.corruption_noise_scale,
            )
            infomax_loss = self.infomax(views.global_nodes, corrupt, cfg.num_regions)
            total = total + infomax_loss * cfg.lambda_infomax
            infomax_value = float(infomax_loss.data)

        if (
            cfg.use_contrastive
            and views.local is not None
            and views.global_temporal is not None
        ):
            contrast_loss = self._contrastive(views.local, views.global_temporal)
            total = total + contrast_loss * cfg.lambda_contrastive
            contrastive_value = float(contrast_loss.data)

        return STHSLLoss(
            total=total,
            prediction=float(pred_loss.data),
            infomax=infomax_value,
            contrastive=contrastive_value,
        )

    def _contrastive(self, local: Tensor, global_temporal: Tensor) -> Tensor:
        """Local-global cross-view InfoNCE (Eq 8).

        Embeddings are mean-pooled over the temporal dimension; for each
        category the (region-aligned) local and global vectors form
        positive pairs, other regions provide negatives.  All (window,
        category) pairs are evaluated in a single vectorized ``info_nce``
        call — ``(B, C, R, d)`` anchors against positives — instead of a
        python loop over categories.
        """
        cfg = self.config
        r = cfg.num_regions
        c = cfg.num_categories
        b = local.shape[0]
        local_pooled = local.mean(axis=2)  # (B, R, C, d)
        global_pooled = global_temporal.mean(axis=1).reshape(b, r, c, cfg.dim)
        anchor = global_pooled.transpose(0, 2, 1, 3)  # (B, C, R, d)
        positive = local_pooled.transpose(0, 2, 1, 3)
        return F.info_nce(anchor, positive, cfg.temperature)

    def training_loss_batch(self, windows: np.ndarray, targets: np.ndarray) -> Tensor:
        """Joint objective (Eq 10) over a stacked batch ``(B, R, T, C)`` / ``(B, R, C)``."""
        views = STHSLViews()
        self.forward_batch(windows, views)
        return self.loss(views, targets).total

    def hyperedge_relevance(self, window: np.ndarray) -> np.ndarray:
        """Time-aware region-hyperedge dependency scores (Figure 8).

        Scores the node embeddings the forward feeds the hypergraph (the
        multi-view encoder's output, or the raw embeddings in "w/o
        Local"), read from the views of a plain ``no_grad`` forward.
        """
        if self.hypergraph is None:
            raise RuntimeError("hypergraph branch is disabled in this config")
        self.eval()
        views = STHSLViews()
        with nn.no_grad():
            self.forward_batch(np.asarray(window)[None], views)
        return self.hypergraph.relevance(views.nodes.squeeze(0))
