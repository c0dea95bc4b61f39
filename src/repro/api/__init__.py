"""``repro.api`` — the unified public surface of the ST-HSL reproduction.

Three pieces make every entry point (CLI, benchmarks, examples, future
serving layers) speak the same language:

* **Model registry** — :data:`REGISTRY` maps names to :class:`ModelSpec`
  entries (builder + ``requires_training``).  ST-HSL and all fifteen Table III
  baselines are registered; adding a model is one decorator, after which
  the CLI, the comparison benches and the estimator can all run it.
* **Forecaster estimator** — :class:`Forecaster` wraps model + trainer +
  budget behind ``fit`` / ``predict`` / ``evaluate`` / ``save`` / ``load``.
* **Versioned artifacts** — checkpoints are single npz files with an
  embedded JSON manifest (schema ``repro.artifact/v2``) carrying the model
  name, build configuration, geometry, normalization statistics, training
  metadata and the requested serving dtype, so ``Forecaster.load`` needs
  the file and nothing else.
  Older schemas upgrade transparently through :func:`migrate`.  See
  :mod:`repro.api.artifacts` for the manifest schema, and
  :mod:`repro.serving` for the serving layer built on this surface.

Usage
-----

Train, save, reload — no flags to match on the way back in::

    from repro.api import ExperimentBudget, Forecaster, REGISTRY
    from repro.data import load_city

    dataset = load_city("nyc", rows=8, cols=8, num_days=150, seed=0)
    fc = Forecaster("ST-HSL", budget=ExperimentBudget(window=14, epochs=5))
    fc.fit(dataset, verbose=True)
    print(fc.evaluate(dataset).overall())
    fc.save("sthsl.npz")

    fc2 = Forecaster.load("sthsl.npz")          # rebuilds model + stats
    history = dataset.tensor[:, 30:44, :]       # raw counts (R, W, C)
    counts = fc2.predict(history)               # expected counts (R, C)

Enumerate and build any registered model::

    for spec in REGISTRY:
        print(spec.name, spec.requires_training)
    model = REGISTRY.build("STGCN", dataset=dataset, window=14, hidden=8)

Describe a whole run as one value, then run it as a forecaster::

    from repro.api import DataSpec, RunSpec
    spec = RunSpec(model="DeepCrime",
                   data=DataSpec(city="chicago", rows=6, cols=6, num_days=100),
                   budget=ExperimentBudget(epochs=3, train_limit=24))
    dataset = spec.data.load()
    result = spec.forecaster().fit(dataset).evaluate(dataset)
    other = spec.with_model("STGCN")            # same data and budget
"""

from .artifacts import (
    ARTIFACT_SCHEMA,
    ARTIFACT_SCHEMA_V1,
    Artifact,
    ArtifactError,
    migrate,
    read_artifact,
    register_migration,
    write_artifact,
)
from .forecaster import Forecaster
from .registry import REGISTRY, ModelGeometry, ModelRegistry, ModelSpec
from .runspec import DataSpec, ExperimentBudget, RunSpec

__all__ = [
    "REGISTRY",
    "ModelGeometry",
    "ModelRegistry",
    "ModelSpec",
    "Forecaster",
    "ExperimentBudget",
    "DataSpec",
    "RunSpec",
    "ARTIFACT_SCHEMA",
    "ARTIFACT_SCHEMA_V1",
    "Artifact",
    "ArtifactError",
    "migrate",
    "read_artifact",
    "register_migration",
    "write_artifact",
]
