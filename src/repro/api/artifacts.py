"""Versioned checkpoint artifacts: self-describing model snapshots.

An artifact is one compressed npz file holding the model's weight arrays
plus an embedded JSON manifest (see :data:`repro.nn.MANIFEST_KEY`).  The
manifest carries everything needed to reconstruct a working forecaster
from the file alone — no CLI flags to match:

.. code-block:: json

    {
      "schema": "repro.artifact/v2",
      "model": "ST-HSL",
      "build": {"window": 14, "hidden": 8, "seed": 0, "overrides": {}},
      "geometry": {"rows": 8, "cols": 8, "num_categories": 4},
      "normalization": {"mu": 0.31, "sigma": 0.74},
      "categories": ["Burglary", "Larceny", "Robbery", "Assault"],
      "budget": {"window": 14, "epochs": 5, "...": "..."},
      "training": {"epochs_run": 5, "best_epoch": 3, "best_val_mae": 0.61},
      "served_dtype": "float32",
      "shard": null,
      "repro_version": "1.2.0"
    }

``schema`` is the versioned contract: loaders reject manifests whose
schema they do not understand instead of mis-reconstructing a model.
Two keys are new in v2 (both may be ``null``):

* ``served_dtype`` — the dtype the artifact asks to be *served* at,
  ``"float32"`` or ``"float64"`` (the weights stay in their trained
  dtype on disk; the loader rebuilds the model in the requested compute
  dtype).  ``null`` means "serve at the model's native dtype".  A stored
  ``"float16"`` (a retired mode that always computed in float32) reads
  as ``"float32"``.
* ``shard`` — retired row-band metadata.  Writers store ``null``;
  readers shape-check a stored block and otherwise ignore it, so a file
  that carries one loads as a plain forecaster over its own geometry.

Older schemas upgrade transparently: :func:`read_artifact` walks the
registered migration chain (:func:`migrate`), so a v1 file written
before this revision loads — and predicts bitwise-identically — without
re-saving.  :func:`register_migration` is the extension point future
schema bumps hook into.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .. import __version__, nn

__all__ = [
    "ARTIFACT_SCHEMA",
    "ARTIFACT_SCHEMA_V1",
    "Artifact",
    "ArtifactError",
    "check_served_dtype",
    "migrate",
    "read_artifact",
    "register_migration",
    "validate_manifest",
    "write_artifact",
]

ARTIFACT_SCHEMA_V1 = "repro.artifact/v1"
ARTIFACT_SCHEMA = "repro.artifact/v2"

_REQUIRED_KEYS = ("schema", "model", "build", "geometry", "normalization", "categories")
_V2_KEYS = ("served_dtype", "shard")
_SERVED_DTYPES = ("float32", "float64")
_SHARD_KEYS = ("index", "count", "row_start", "row_stop", "parent")


class ArtifactError(ValueError):
    """A checkpoint file is not a readable artifact of this schema.

    Raised by :func:`read_artifact` / :func:`migrate` on bare state-dict
    files, unknown schema versions, and truncated or malformed manifests::

        try:
            artifact = read_artifact("model.npz")
        except ArtifactError as err:
            print(f"not a loadable checkpoint: {err}")
    """


@dataclass(frozen=True)
class Artifact:
    """A validated (manifest, weights) pair read from disk.

    Always carries a current-schema (v2) manifest — older files are
    upgraded during :func:`read_artifact`.  Typical use::

        artifact = read_artifact("model.npz")
        print(artifact.model_name, artifact.geometry, artifact.served_dtype)
        model.load_state_dict(artifact.state)
    """

    manifest: dict
    state: dict[str, np.ndarray]

    @property
    def model_name(self) -> str:
        """Registry name of the model this checkpoint belongs to."""
        return self.manifest["model"]

    @property
    def build(self) -> dict:
        """Builder arguments (window, hidden, seed, overrides)."""
        return self.manifest["build"]

    @property
    def geometry(self) -> dict:
        """Grid geometry payload (rows, cols, num_categories)."""
        return self.manifest["geometry"]

    @property
    def normalization(self) -> dict:
        """Z-score statistics (``mu``, ``sigma``) learned at fit time."""
        return self.manifest["normalization"]

    @property
    def categories(self) -> tuple[str, ...]:
        """Crime-category names, in tensor channel order."""
        return tuple(self.manifest["categories"])

    @property
    def training(self) -> dict:
        """Training metadata (epochs run, best epoch, best val MAE)."""
        return self.manifest.get("training", {})

    @property
    def served_dtype(self) -> str | None:
        """Requested serving compute dtype, or None for the native dtype."""
        return self.manifest.get("served_dtype")


# ----------------------------------------------------------------------
# Schema migrations
# ----------------------------------------------------------------------
_MIGRATIONS: dict[str, Callable[[dict], dict]] = {}


def register_migration(from_schema: str) -> Callable:
    """Register a one-step manifest upgrade starting at ``from_schema``.

    The decorated function takes the old manifest dict and returns a new
    manifest whose ``schema`` tag has advanced one version.  Chains
    compose: a v1 file reaching a v3 reader walks v1→v2→v3.  This is the
    extension point future format revisions plug into::

        @register_migration("repro.artifact/v2")
        def _v2_to_v3(manifest):
            out = dict(manifest, schema="repro.artifact/v3")
            out["new_field"] = default_value
            return out
    """

    def decorator(fn: Callable[[dict], dict]) -> Callable[[dict], dict]:
        if from_schema in _MIGRATIONS:
            raise ValueError(f"a migration from {from_schema!r} is already registered")
        _MIGRATIONS[from_schema] = fn
        return fn

    return decorator


@register_migration(ARTIFACT_SCHEMA_V1)
def _v1_to_v2(manifest: dict) -> dict:
    """v1 → v2: add ``served_dtype``/``shard`` (null = previous behaviour).

    A migrated v1 artifact serves at its native dtype on its whole grid,
    so predictions through the upgraded manifest are bitwise-identical to
    what the v1 loader produced (locked by
    ``tests/api/test_artifacts.py``).
    """
    out = dict(manifest)
    out["schema"] = ARTIFACT_SCHEMA
    out.setdefault("served_dtype", None)
    out.setdefault("shard", None)
    return out


def migrate(manifest: dict) -> dict:
    """Upgrade ``manifest`` to the current schema via registered steps.

    Already-current manifests pass through unchanged, except that a
    stored ``served_dtype: "float16"`` — a retired serving mode whose
    weights always computed in float32 — maps to ``"float32"`` (no schema
    bump).  Unknown schemas (including *newer* ones) raise
    :class:`ArtifactError`.  Example::

        v1 = {"schema": "repro.artifact/v1", "model": "ST-HSL", ...}
        v2 = migrate(v1)
        assert v2["schema"] == ARTIFACT_SCHEMA and v2["shard"] is None
    """
    if manifest is None:
        raise ArtifactError(
            "file has no manifest — it looks like a bare state-dict checkpoint "
            "(nn.save_module); re-save it through Forecaster.save to get a "
            "self-describing artifact"
        )
    seen = set()
    while manifest.get("schema") != ARTIFACT_SCHEMA:
        schema = manifest.get("schema")
        if schema in seen:  # defensive: a miswritten migration loop
            raise ArtifactError(f"migration loop detected at schema {schema!r}")
        seen.add(schema)
        step = _MIGRATIONS.get(schema)
        if step is None:
            raise ArtifactError(
                f"unsupported artifact schema {schema!r}; this build reads "
                f"{ARTIFACT_SCHEMA!r} and can migrate from "
                f"{sorted(_MIGRATIONS)}"
            )
        manifest = step(manifest)
    if manifest.get("served_dtype") == "float16":
        manifest = dict(manifest, served_dtype="float32")
    return manifest


def check_served_dtype(served_dtype: str | None) -> str | None:
    """Return ``served_dtype`` if loaders can serve it; raise :class:`ArtifactError`.

    The domain is ``"float32"``, ``"float64"`` or ``None`` (the model's
    native dtype).  Manifests, :meth:`Forecaster.load` and
    :class:`~repro.serving.ModelPool` check against it, so an unservable
    request fails up front rather than loading some models natively::

        check_served_dtype("float32")  # -> "float32"
        check_served_dtype("float16")  # raises ArtifactError
    """
    if served_dtype is not None and served_dtype not in _SERVED_DTYPES:
        raise ArtifactError(
            f"served_dtype must be one of {_SERVED_DTYPES} or null, got {served_dtype!r}"
        )
    return served_dtype


def validate_manifest(manifest: dict | None) -> dict:
    """Check a manifest against the v2 contract; raise :class:`ArtifactError`.

    Verifies the schema tag, the required keys, the ``served_dtype``
    domain and (when present) the ``shard`` block's shape.  Returns the
    manifest unchanged on success so call sites can chain it::

        manifest = validate_manifest(migrate(raw_manifest))
    """
    if manifest is None:
        raise ArtifactError(
            "file has no manifest — it looks like a bare state-dict checkpoint "
            "(nn.save_module); re-save it through Forecaster.save to get a "
            "self-describing artifact"
        )
    schema = manifest.get("schema")
    if schema != ARTIFACT_SCHEMA:
        raise ArtifactError(
            f"unsupported artifact schema {schema!r}; this build reads {ARTIFACT_SCHEMA!r}"
        )
    missing = [key for key in _REQUIRED_KEYS + _V2_KEYS if key not in manifest]
    if missing:
        raise ArtifactError(f"artifact manifest is missing required keys: {missing}")
    check_served_dtype(manifest["served_dtype"])
    shard = manifest["shard"]
    if shard is not None:
        missing = [key for key in _SHARD_KEYS if key not in shard]
        if missing:
            raise ArtifactError(f"shard metadata is missing keys: {missing}")
        if not 0 <= int(shard["index"]) < int(shard["count"]):
            raise ArtifactError(
                f"shard index {shard['index']} out of range for count {shard['count']}"
            )
        if not int(shard["row_start"]) < int(shard["row_stop"]):
            raise ArtifactError(
                f"shard row band [{shard['row_start']}, {shard['row_stop']}) is empty"
            )
    return manifest


def write_artifact(
    path: str | Path,
    *,
    state: dict[str, np.ndarray],
    model_name: str,
    build: dict,
    geometry: dict,
    normalization: dict,
    categories: tuple[str, ...],
    budget: dict | None = None,
    training: dict | None = None,
    served_dtype: str | None = None,
) -> dict:
    """Assemble a v2 manifest around ``state`` and write the artifact.

    ``served_dtype`` asks loaders to rebuild the model in that compute
    dtype.  Returns the manifest that was written (handy for
    logging/tests)::

        manifest = write_artifact("m.npz", state=model.state_dict(), ...)
        assert manifest["schema"] == ARTIFACT_SCHEMA
    """
    manifest = {
        "schema": ARTIFACT_SCHEMA,
        "model": model_name,
        "build": build,
        "geometry": geometry,
        "normalization": normalization,
        "categories": list(categories),
        "budget": budget or {},
        "training": training or {},
        "served_dtype": served_dtype,
        "shard": None,
        "repro_version": __version__,
    }
    validate_manifest(manifest)
    nn.save_archive(path, state, manifest)
    return manifest


def read_artifact(path: str | Path) -> Artifact:
    """Load, migrate and validate an artifact.

    Older schemas upgrade in memory through the registered migration
    chain (the file on disk is untouched — use the CLI's
    ``migrate-artifact`` to rewrite it).  Raises :class:`ArtifactError`
    on bare state-dict files, unknown schema versions, or truncated
    manifests::

        artifact = read_artifact("pre_v2_checkpoint.npz")
        assert artifact.manifest["schema"] == ARTIFACT_SCHEMA
    """
    manifest, state = nn.load_archive(path)
    return Artifact(manifest=validate_manifest(migrate(manifest)), state=state)
