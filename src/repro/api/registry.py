"""Model registry: one catalogue for ST-HSL and the whole baseline zoo.

Every model the system can train — ST-HSL itself and the fifteen Table III
baselines plus the historical-average reference — is described by a
:class:`ModelSpec` (name, builder, capabilities) and registered on the
module-level :data:`REGISTRY` with the :meth:`ModelRegistry.register`
decorator.  Consumers (CLI, benchmarks, the :class:`~repro.api.Forecaster`
estimator) resolve names through the registry instead of hardcoded
``if name == ...`` chains.  Every built model trains and predicts through
the batched methods (``training_loss_batch``/``predict_batch``), so the
one capability a spec records is ``requires_training``.

Builders construct models from a :class:`ModelGeometry` — the minimal
description of the data a model must fit (grid shape and category count)
— rather than a full dataset, so a checkpoint artifact that records the
geometry can rebuild its model without any dataset or CLI flags present.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from ..baselines.agcrn import AGCRN
from ..baselines.arima import ARIMA
from ..baselines.dcrnn import DCRNN
from ..baselines.deepcrime import DeepCrime
from ..baselines.dmstgcn import DMSTGCN
from ..baselines.gman import GMAN
from ..baselines.gwn import GraphWaveNet
from ..baselines.historical_average import HistoricalAverage
from ..baselines.mtgnn import MTGNN
from ..baselines.st_metanet import STMetaNet
from ..baselines.st_resnet import STResNet
from ..baselines.stdn import STDN
from ..baselines.stgcn import STGCN
from ..baselines.stshn import STSHN
from ..baselines.sttrans import STtrans
from ..baselines.svr import SVR
from ..core import STHSL, STHSLConfig
from ..data.grid import GridSegmentation
from ..data.schema import BoundingBox

__all__ = ["ModelGeometry", "ModelSpec", "ModelRegistry", "REGISTRY"]


@dataclass(frozen=True)
class ModelGeometry:
    """The data shape a model is built for: grid layout + category count.

    This is everything a builder needs — region adjacency is derived from
    the grid structure alone (it does not depend on geographic extent), so
    a geometry can be reconstructed from three integers in a checkpoint
    manifest.  Example::

        geometry = ModelGeometry.of(dataset)          # or ModelGeometry(8, 8, 4)
        model = REGISTRY.build("STGCN", geometry=geometry, window=14)
        assert geometry == ModelGeometry.from_dict(geometry.to_dict())
    """

    rows: int
    cols: int
    num_categories: int

    @classmethod
    def of(cls, dataset) -> "ModelGeometry":
        """Geometry of a :class:`~repro.data.CrimeDataset`."""
        return cls(
            rows=dataset.grid.rows,
            cols=dataset.grid.cols,
            num_categories=dataset.num_categories,
        )

    @property
    def num_regions(self) -> int:
        """Total region count (``rows * cols``)."""
        return self.rows * self.cols

    def grid(self) -> GridSegmentation:
        """A unit-bbox grid carrying this geometry's topology."""
        return GridSegmentation(
            BoundingBox(lat_min=0.0, lat_max=1.0, lon_min=0.0, lon_max=1.0),
            self.rows,
            self.cols,
        )

    def adjacency(self):
        """Binary 8-neighbourhood region adjacency for this geometry."""
        return self.grid().adjacency_matrix()

    def normalized_adjacency(self):
        """Degree-normalised adjacency (the graph baselines' operator)."""
        return self.grid().normalized_adjacency()

    def to_dict(self) -> dict:
        """JSON-safe payload for checkpoint manifests."""
        return {"rows": self.rows, "cols": self.cols, "num_categories": self.num_categories}

    @classmethod
    def from_dict(cls, payload: dict) -> "ModelGeometry":
        """Rebuild a geometry from a manifest payload."""
        return cls(
            rows=int(payload["rows"]),
            cols=int(payload["cols"]),
            num_categories=int(payload["num_categories"]),
        )


# A builder maps (geometry, window, hidden, seed, **overrides) -> model.
Builder = Callable[..., object]


@dataclass(frozen=True)
class ModelSpec:
    """Registry entry: how to build a model and what it can do.

    ``requires_training`` — whether the gradient loop applies (statistical
    methods like ARIMA fit at prediction time and skip it entirely).
    Example::

        spec = REGISTRY.spec("ST-HSL")
        assert spec.requires_training
    """

    name: str
    builder: Builder = field(repr=False)
    requires_training: bool = True
    description: str = ""

    def build(self, geometry: ModelGeometry, window: int, hidden: int = 16, seed: int = 0, **overrides):
        """Instantiate this spec's model for ``geometry``."""
        return self.builder(geometry, window=window, hidden=hidden, seed=seed, **overrides)


class ModelRegistry:
    """Name → :class:`ModelSpec` catalogue with decorator registration.

    Consumers resolve model names through the process-wide
    :data:`REGISTRY` instance; registering a new model makes it available
    to the CLI, the benchmarks and the :class:`~repro.api.Forecaster`
    at once::

        @REGISTRY.register("MyModel")
        def _build(geometry, *, window, hidden, seed, **overrides):
            return MyModel(geometry.rows, geometry.cols, hidden, seed=seed)

        model = REGISTRY.build("MyModel", geometry=geometry, window=14)

    The trainer, the estimator and the ``shapes`` lint pass call only a
    model's batched methods, so a new model subclasses
    :class:`~repro.training.interface.ForecastModel` and implements
    ``forward`` or ``forward_batch``.
    """

    def __init__(self) -> None:
        self._specs: dict[str, ModelSpec] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        *,
        requires_training: bool = True,
        description: str = "",
    ) -> Callable[[Builder], Builder]:
        """Decorator registering ``fn(geometry, *, window, hidden, seed, **ov)``."""

        def decorator(builder: Builder) -> Builder:
            if name in self._specs:
                raise ValueError(f"model {name!r} is already registered")
            self._specs[name] = ModelSpec(
                name=name,
                builder=builder,
                requires_training=requires_training,
                description=description,
            )
            return builder

        return decorator

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def spec(self, name: str) -> ModelSpec:
        """The :class:`ModelSpec` registered under ``name`` (KeyError if absent)."""
        try:
            return self._specs[name]
        except KeyError:
            raise KeyError(
                f"unknown model {name!r}; registered: {', '.join(self.names())}"
            ) from None

    def names(self) -> tuple[str, ...]:
        """All registered names, in registration (Table III) order."""
        return tuple(self._specs)

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __iter__(self) -> Iterator[ModelSpec]:
        return iter(self._specs.values())

    def __len__(self) -> int:
        return len(self._specs)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def build(
        self,
        name: str,
        *,
        dataset=None,
        geometry: ModelGeometry | None = None,
        window: int,
        hidden: int = 16,
        seed: int = 0,
        **overrides,
    ):
        """Instantiate ``name`` for a dataset's (or explicit) geometry."""
        if geometry is None:
            if dataset is None:
                raise ValueError("build() needs either a dataset or a geometry")
            geometry = ModelGeometry.of(dataset)
        return self.spec(name).build(geometry, window=window, hidden=hidden, seed=seed, **overrides)


#: The process-wide registry every entry point resolves names against.
REGISTRY = ModelRegistry()


# ----------------------------------------------------------------------
# ST-HSL (the paper's model) — registered as just another entry.
# ----------------------------------------------------------------------
@REGISTRY.register(
    "ST-HSL",
    description="Spatial-Temporal Hypergraph Self-Supervised Learning (this paper)",
)
def _build_sthsl(geometry: ModelGeometry, *, window: int, hidden: int, seed: int, **overrides):
    base = dict(
        rows=geometry.rows,
        cols=geometry.cols,
        num_categories=geometry.num_categories,
        window=window,
        dim=hidden,
        num_hyperedges=32,
        num_global_temporal_layers=2,
    )
    base.update(overrides)
    return STHSL(STHSLConfig(**base), seed=seed)


# ----------------------------------------------------------------------
# Table III baselines, in the paper's row order.
# ----------------------------------------------------------------------
@REGISTRY.register("ARIMA", requires_training=False, description="per-series ARIMA (Hannan–Rissanen)")
def _build_arima(geometry: ModelGeometry, *, window: int, hidden: int, seed: int, **overrides):
    return ARIMA(**overrides)


@REGISTRY.register("SVM", description="linear epsilon-SVR on lag features")
def _build_svm(geometry: ModelGeometry, *, window: int, hidden: int, seed: int, **overrides):
    return SVR(window=window, num_categories=geometry.num_categories, seed=seed, **overrides)


@REGISTRY.register("ST-ResNet", description="residual CNN over the region grid")
def _build_st_resnet(geometry: ModelGeometry, *, window: int, hidden: int, seed: int, **overrides):
    return STResNet(
        geometry.rows, geometry.cols, geometry.num_categories, window, hidden=hidden, seed=seed, **overrides
    )


@REGISTRY.register("DCRNN", description="diffusion-convolutional RNN")
def _build_dcrnn(geometry: ModelGeometry, *, window: int, hidden: int, seed: int, **overrides):
    return DCRNN(geometry.adjacency(), geometry.num_categories, hidden=hidden, seed=seed, **overrides)


@REGISTRY.register("STGCN", description="sandwich ST-Conv blocks over the region graph")
def _build_stgcn(geometry: ModelGeometry, *, window: int, hidden: int, seed: int, **overrides):
    return STGCN(
        geometry.normalized_adjacency(), geometry.num_categories, window, hidden=hidden, seed=seed, **overrides
    )


@REGISTRY.register("GWN", description="Graph WaveNet: adaptive adjacency + dilated TCN")
def _build_gwn(geometry: ModelGeometry, *, window: int, hidden: int, seed: int, **overrides):
    return GraphWaveNet(geometry.adjacency(), geometry.num_categories, hidden=hidden, seed=seed, **overrides)


@REGISTRY.register("STtrans", description="spatial-temporal transformer for sparse crime")
def _build_sttrans(geometry: ModelGeometry, *, window: int, hidden: int, seed: int, **overrides):
    return STtrans(geometry.num_regions, geometry.num_categories, window, dim=hidden, seed=seed, **overrides)


@REGISTRY.register("DeepCrime", description="attentive recurrent crime predictor")
def _build_deepcrime(geometry: ModelGeometry, *, window: int, hidden: int, seed: int, **overrides):
    return DeepCrime(geometry.num_regions, geometry.num_categories, hidden=hidden, seed=seed, **overrides)


@REGISTRY.register("STDN", description="flow-gated CNN-LSTM with periodic attention")
def _build_stdn(geometry: ModelGeometry, *, window: int, hidden: int, seed: int, **overrides):
    return STDN(
        geometry.rows, geometry.cols, geometry.num_categories, window, hidden=hidden, seed=seed, **overrides
    )


@REGISTRY.register("ST-MetaNet", description="meta-learned graph attention RNN")
def _build_st_metanet(geometry: ModelGeometry, *, window: int, hidden: int, seed: int, **overrides):
    return STMetaNet(geometry.num_regions, geometry.num_categories, hidden=hidden, seed=seed, **overrides)


@REGISTRY.register("GMAN", description="graph multi-attention network")
def _build_gman(geometry: ModelGeometry, *, window: int, hidden: int, seed: int, **overrides):
    return GMAN(geometry.num_regions, geometry.num_categories, window, dim=hidden, seed=seed, **overrides)


@REGISTRY.register("AGCRN", description="adaptive graph convolutional recurrent network")
def _build_agcrn(geometry: ModelGeometry, *, window: int, hidden: int, seed: int, **overrides):
    return AGCRN(geometry.num_regions, geometry.num_categories, hidden=hidden, seed=seed, **overrides)


@REGISTRY.register("MTGNN", description="multivariate time-series GNN with graph learning")
def _build_mtgnn(geometry: ModelGeometry, *, window: int, hidden: int, seed: int, **overrides):
    return MTGNN(geometry.num_regions, geometry.num_categories, hidden=hidden, seed=seed, **overrides)


@REGISTRY.register("STSHN", description="spatial-temporal sequential hypergraph network")
def _build_stshn(geometry: ModelGeometry, *, window: int, hidden: int, seed: int, **overrides):
    kwargs = dict(num_hyperedges=128)
    kwargs.update(overrides)
    return STSHN(geometry.normalized_adjacency(), geometry.num_categories, hidden=hidden, seed=seed, **kwargs)


@REGISTRY.register("DMSTGCN", description="dynamic multi-faceted ST graph convolution")
def _build_dmstgcn(geometry: ModelGeometry, *, window: int, hidden: int, seed: int, **overrides):
    return DMSTGCN(geometry.num_regions, geometry.num_categories, hidden=hidden, seed=seed, **overrides)


# ----------------------------------------------------------------------
# Reference forecaster (not a Table III row, but the canonical lower bar).
# ----------------------------------------------------------------------
@REGISTRY.register("HA", requires_training=False, description="historical average of the window")
def _build_ha(geometry: ModelGeometry, *, window: int, hidden: int, seed: int, **overrides):
    return HistoricalAverage(**overrides)
