"""Run descriptions: data + model + budget as frozen values.

A :class:`RunSpec` fully describes one training run — which dataset to
load (:class:`DataSpec`), which registered model to build, and under what
:class:`ExperimentBudget` to train it.  The CLI, the paper benches and
the examples describe their work as specs and execute every one through
:meth:`RunSpec.forecaster`, the :class:`~repro.api.Forecaster` path.
The budget alone round-trips through ``to_dict``/``from_dict``, because
checkpoint manifests embed it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

from ..data.datasets import CrimeDataset, load_city

__all__ = ["ExperimentBudget", "DataSpec", "RunSpec"]


@dataclass(frozen=True)
class ExperimentBudget:
    """Training budget shared by every model in a comparison.

    One frozen value object holds the window length, epoch/patience
    limits and optimizer hyper-parameters, so comparisons train every
    model under identical conditions and checkpoints can embed the exact
    budget they were trained with::

        budget = ExperimentBudget(window=14, epochs=5, train_limit=40)
        Forecaster("ST-HSL", budget=budget).fit(dataset)
        assert ExperimentBudget.from_dict(budget.to_dict()) == budget
    """

    window: int = 14
    epochs: int = 4
    train_limit: int | None = 40  # windows per epoch (reduced-scale protocol)
    batch_size: int = 4
    lr: float = 1e-3
    weight_decay: float = 1e-5
    patience: int | None = None
    seed: int = 0

    def to_dict(self) -> dict:
        """JSON-safe payload (embedded in checkpoint manifests)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentBudget":
        """Rebuild a budget from a manifest payload."""
        return cls(**payload)


@dataclass(frozen=True)
class DataSpec:
    """Which dataset to load: a city config plus optional scale overrides.

    ``load()`` materialises the (synthetic, seed-deterministic) dataset;
    leaving the size overrides at None gives the paper's full Table II
    scale::

        dataset = DataSpec(city="nyc", rows=6, cols=6, num_days=100).load()
    """

    city: str = "nyc"
    rows: int | None = None
    cols: int | None = None
    num_days: int | None = None
    seed: int = 0

    def load(self) -> CrimeDataset:
        """Materialise the dataset this spec describes."""
        return load_city(
            self.city, rows=self.rows, cols=self.cols, num_days=self.num_days, seed=self.seed
        )


@dataclass(frozen=True)
class RunSpec:
    """One experiment: data + model + budget.

    ``model`` is a registry name (see :data:`repro.api.REGISTRY`);
    ``hidden`` is the capacity knob every builder understands (ST-HSL's
    embedding dim, the baselines' hidden width); ``overrides`` are extra
    builder kwargs (e.g. ``num_hyperedges`` for ST-HSL).  Example::

        spec = RunSpec(model="DeepCrime", data=DataSpec(rows=6, cols=6))
        dataset = spec.data.load()
        result = spec.forecaster().fit(dataset).evaluate(dataset)
    """

    model: str = "ST-HSL"
    data: DataSpec = field(default_factory=DataSpec)
    budget: ExperimentBudget = field(default_factory=ExperimentBudget)
    hidden: int = 8
    overrides: dict = field(default_factory=dict)

    def with_model(self, model: str, hidden: int | None = None, **overrides) -> "RunSpec":
        """Same data and budget, different model — the comparison idiom."""
        return replace(
            self,
            model=model,
            hidden=self.hidden if hidden is None else hidden,
            overrides=overrides,
        )

    def forecaster(self):
        """An unfitted :class:`~repro.api.Forecaster` realising this spec."""
        from .forecaster import Forecaster

        return Forecaster(
            self.model, budget=self.budget, hidden=self.hidden, overrides=self.overrides
        )
