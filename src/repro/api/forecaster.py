"""The :class:`Forecaster` estimator façade: fit / predict / save / load.

One object wraps model construction (via the registry), training (via
:class:`~repro.training.Trainer` under an :class:`ExperimentBudget`),
normalization bookkeeping, evaluation, and versioned checkpoint
artifacts.  The estimator works in *case counts* end to end: ``fit``
learns the z-score statistics from its dataset, ``predict`` takes a raw
count history and returns expected counts, and ``save`` persists the
statistics alongside the weights so a loaded forecaster reproduces
predictions exactly with no external configuration.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..data.datasets import CrimeDataset
from ..training import Trainer, WindowDataset
from ..training.evaluation import EvaluationResult
from .artifacts import check_served_dtype, read_artifact, write_artifact
from .registry import REGISTRY, ModelGeometry, ModelRegistry
from .runspec import ExperimentBudget

__all__ = ["Forecaster"]


class Forecaster:
    """Estimator for next-day crime prediction with any registered model.

    Usage::

        fc = Forecaster("ST-HSL", budget=ExperimentBudget(epochs=5))
        fc.fit(dataset)
        counts = fc.predict(history)        # raw (R, W, C) counts in, (R, C) out
        stack = fc.predict_batch(windows)   # (B, R, W, C) through the fast path
        for out in fc.iter_predict(stream): # streaming, micro-batched
            ...
        result = fc.evaluate(dataset)       # masked MAE/MAPE on the test split
        fc.save("model.npz")                # self-describing artifact
        fc2 = Forecaster.load("model.npz")  # no flags needed

    The inference paths (``predict``/``predict_batch``/``iter_predict``)
    are thread-safe *with respect to each other*: the no-grad/arena/dtype
    execution state is thread-local and each thread predicts under its
    own per-thread model arena, so concurrent calls return exactly what
    sequential calls would.  ``fit`` is not thread-safe, and predicting
    **during** an in-progress ``fit`` on the same forecaster is also
    unsupported — the predict path switches the module to eval mode
    (``self.eval()``), a module-wide flag that would silently turn the
    rest of the training epoch's dropout off.  Serve from one forecaster
    while retraining another (e.g. a fresh ``Forecaster`` that replaces
    the served one on completion, the pattern :class:`repro.serving.ModelPool`
    supports).
    """

    def __init__(
        self,
        model: str = "ST-HSL",
        *,
        budget: ExperimentBudget | None = None,
        hidden: int = 8,
        overrides: dict | None = None,
        registry: ModelRegistry = REGISTRY,
    ):
        self.registry = registry
        self.spec = registry.spec(model)  # fail fast on unknown names
        self.budget = budget if budget is not None else ExperimentBudget()
        self.hidden = hidden
        self.overrides = dict(overrides or {})
        self.model = None
        self.geometry: ModelGeometry | None = None
        self.mu: float | None = None
        self.sigma: float | None = None
        self.categories: tuple[str, ...] = ()
        self.training_: dict = {}
        #: Compute dtype actually applied at load time (None = native).
        self.served_dtype: str | None = None

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def model_name(self) -> str:
        """Registry name of the wrapped model."""
        return self.spec.name

    @property
    def window(self) -> int:
        """History length (days) every prediction consumes."""
        return self.budget.window

    @property
    def is_fitted(self) -> bool:
        """Whether ``fit``/``load`` has produced a servable model."""
        return self.model is not None and self.mu is not None

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise RuntimeError(
                f"Forecaster({self.model_name!r}) is not fitted; call fit() or load()"
            )

    # ------------------------------------------------------------------
    # Estimator API
    # ------------------------------------------------------------------
    def fit(self, dataset: CrimeDataset, verbose: bool = False) -> "Forecaster":
        """Build the model for ``dataset``'s geometry and train it.

        Models whose spec says ``requires_training=False`` (statistical
        methods) skip the gradient loop entirely; everything else trains
        with Adam under the forecaster's budget.  Refitting on a dataset
        with a different geometry rebuilds the model from scratch.
        """
        geometry = ModelGeometry.of(dataset)
        if self.model is None or geometry != self.geometry:
            self.geometry = geometry
            self.model = self.spec.build(
                geometry,
                window=self.budget.window,
                hidden=self.hidden,
                seed=self.budget.seed,
                **self.overrides,
            )
        self.mu = float(dataset.mu)
        self.sigma = float(dataset.sigma)
        self.categories = dataset.categories
        self.training_ = {"epochs_run": 0, "best_epoch": None, "best_val_mae": None}
        if self.spec.requires_training:
            windows = WindowDataset(dataset, window=self.budget.window)
            trainer = Trainer(
                self.model,
                lr=self.budget.lr,
                weight_decay=self.budget.weight_decay,
                batch_size=self.budget.batch_size,
                seed=self.budget.seed,
            )
            result = trainer.fit(
                windows,
                epochs=self.budget.epochs,
                patience=self.budget.patience,
                train_limit=self.budget.train_limit,
                verbose=verbose,
            )
            if result.history:  # a zero-epoch fit has no best epoch to record
                self.training_ = {
                    "epochs_run": len(result.history),
                    "best_epoch": result.best_epoch,
                    "best_val_mae": float(result.best_val_mae),
                }
        return self

    def predict(self, window: np.ndarray) -> np.ndarray:
        """Expected next-day counts from a raw count history.

        ``window`` is ``(R, W, C)`` — or a stacked ``(B, R, W, C)`` batch.
        Either runs through the model's graph-free ``predict_batch``
        (no_grad + the model's buffer arena), a single window as a stack
        of one.  Normalization uses the statistics learned at fit time
        (or restored from the artifact), and the output is denormalized
        back to counts, floored at zero.
        """
        self._require_fitted()
        window = np.asarray(window, dtype=float)
        if window.ndim not in (3, 4):
            raise ValueError(f"expected a (R, W, C) window or (B, R, W, C) batch, got {window.shape}")
        normalized = (window - self.mu) / self.sigma
        if window.ndim == 4:
            out = self.model.predict_batch(normalized)
        else:
            out = self.model.predict_batch(normalized[None])[0]
        return np.maximum(out * self.sigma + self.mu, 0.0)

    def predict_batch(self, windows: np.ndarray, batch_size: int | None = None) -> np.ndarray:
        """High-throughput batched inference over stacked raw-count windows.

        ``windows`` is ``(B, R, W, C)``; returns ``(B, R, C)`` expected
        counts.  The whole stack runs through the model's graph-free
        batched path (no autograd closures, reusable buffer arena); pass
        ``batch_size`` to chunk very large stacks and bound peak memory —
        the arena is reused across chunks, so chunking costs no extra
        allocations.
        """
        self._require_fitted()
        if batch_size is not None and batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        windows = np.asarray(windows, dtype=float)
        if windows.ndim != 4:
            raise ValueError(f"expected a (B, R, W, C) batch, got {windows.shape}")
        if batch_size is None or len(windows) <= batch_size:
            return self.predict(windows)
        return np.concatenate(
            [self.predict(windows[start : start + batch_size]) for start in range(0, len(windows), batch_size)]
        )

    def iter_predict(self, events, batch_size: int = 32):
        """Streaming inference over an iterable of ``(R, W, C)`` windows.

        Micro-batches up to ``batch_size`` windows from the stream through
        the batched fast path and yields one ``(R, C)`` count prediction
        per input window, in input order (the tail flushes when the stream
        ends).  One buffer arena serves the whole stream, so steady-state
        throughput matches :meth:`predict_batch`.  Use ``batch_size=1``
        when per-event latency matters more than throughput.
        """
        # Validate eagerly, at the call site — not at first next() on the
        # returned generator, which may be consumed far from the mistake.
        self._require_fitted()
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        return self._iter_predict(events, batch_size)

    def _iter_predict(self, events, batch_size: int):
        pending: list[np.ndarray] = []
        for event in events:
            window = np.asarray(event, dtype=float)
            if window.ndim != 3:
                raise ValueError(f"expected (R, W, C) windows in the stream, got {window.shape}")
            pending.append(window)
            if len(pending) == batch_size:
                yield from self.predict(np.stack(pending))
                pending = []
        if pending:
            yield from self.predict(np.stack(pending))

    def evaluate(self, dataset: CrimeDataset, split: str = "test") -> EvaluationResult:
        """Masked MAE/MAPE of the fitted model over one split of ``dataset``.

        Predictions go through :meth:`predict`, so inputs are normalized
        with the forecaster's *own* statistics (learned at fit time or
        restored from the artifact) — evaluating a loaded artifact on a
        rebuilt dataset never silently rescales the model's inputs with
        that dataset's statistics.  On the fit dataset itself the two
        coincide exactly.
        """
        self._require_fitted()
        self.check_compatible(dataset)
        windows = WindowDataset(dataset, window=self.budget.window)
        days = [sample.day for sample in windows.samples(split)]
        if not days:
            raise ValueError(f"split {split!r} has no samples")
        predictions = []
        for start in range(0, len(days), 32):  # bound batch memory
            batch = np.stack(
                [dataset.tensor[:, day - self.window : day, :] for day in days[start : start + 32]]
            )
            predictions.append(self.predict(batch))
        targets = np.stack([dataset.tensor[:, day, :] for day in days])
        return EvaluationResult(
            predictions=np.concatenate(predictions),
            targets=targets,
            categories=dataset.categories,
        )

    def check_compatible(self, dataset: CrimeDataset) -> None:
        """Fail fast (with a fix hint) when ``dataset``'s geometry does not
        match the model's — instead of an opaque shape error mid-forward."""
        self._require_fitted()
        geometry = ModelGeometry.of(dataset)
        if geometry != self.geometry:
            raise ValueError(
                f"dataset geometry {geometry.rows}x{geometry.cols} "
                f"({geometry.num_categories} categories) does not match the "
                f"{self.model_name} model's geometry {self.geometry.rows}x"
                f"{self.geometry.cols} ({self.geometry.num_categories} categories); "
                "regenerate the dataset with the artifact's --rows/--cols"
            )

    # ------------------------------------------------------------------
    # Artifacts
    # ------------------------------------------------------------------
    def save(self, path: str | Path, *, served_dtype: str | None = None) -> dict:
        """Write a versioned artifact; returns the manifest written.

        ``served_dtype`` records the compute dtype the artifact asks to
        be served at (``"float32"`` is the serving mode — weights stay in
        their trained dtype, :meth:`load` rebuilds the model in the
        requested dtype).  The default None writes a native-dtype
        artifact::

            fc.save("model.npz", served_dtype="float32")
        """
        self._require_fitted()
        return write_artifact(
            path,
            state=self.model.state_dict(),
            model_name=self.model_name,
            build={
                "window": self.budget.window,
                "hidden": self.hidden,
                "seed": self.budget.seed,
                "overrides": dict(self.overrides),
            },
            geometry=self.geometry.to_dict(),
            normalization={"mu": self.mu, "sigma": self.sigma},
            categories=self.categories,
            budget=self.budget.to_dict(),
            training=self.training_,
            served_dtype=served_dtype,
        )

    @classmethod
    def load(
        cls,
        path: str | Path,
        registry: ModelRegistry = REGISTRY,
        served_dtype: str | None = None,
    ) -> "Forecaster":
        """Reconstruct a working forecaster from an artifact alone.

        The manifest supplies the model name, build configuration,
        geometry and normalization statistics; the npz payload supplies
        the weights.  Pre-v2 artifacts upgrade transparently through the
        registered migration chain (:func:`repro.api.artifacts.migrate`)
        and predict bitwise-identically to the original loader.  Raises
        :class:`~repro.api.ArtifactError` on bare state-dict files or
        unknown schema versions.

        ``served_dtype`` (``"float32"`` or ``"float64"``; anything else
        raises :class:`~repro.api.ArtifactError`) overrides the
        manifest's ``served_dtype`` field (explicit argument > manifest >
        model native dtype).  Dtype requests are best-effort: models whose
        builder does not accept a ``compute_dtype`` override (most
        baselines) load at their native dtype.  Example::

            fc = Forecaster.load("model.npz", served_dtype="float32")
            assert fc.served_dtype == "float32"
        """
        check_served_dtype(served_dtype)
        artifact = read_artifact(path)
        build = artifact.build
        budget_payload = artifact.manifest.get("budget") or {"window": int(build["window"])}
        forecaster = cls(
            artifact.model_name,
            budget=ExperimentBudget.from_dict(budget_payload),
            hidden=int(build.get("hidden", 8)),
            overrides=dict(build.get("overrides", {})),
            registry=registry,
        )
        geometry = ModelGeometry.from_dict(artifact.geometry)
        forecaster.geometry = geometry
        requested = served_dtype if served_dtype is not None else artifact.served_dtype
        build_kwargs = dict(
            window=int(build["window"]),
            hidden=forecaster.hidden,
            seed=int(build.get("seed", 0)),
            **forecaster.overrides,
        )
        forecaster.model = None
        if requested is not None and "compute_dtype" not in forecaster.overrides:
            try:
                forecaster.model = forecaster.spec.build(
                    geometry, compute_dtype=requested, **build_kwargs
                )
                forecaster.served_dtype = requested
            except TypeError:
                # The builder has no dtype knob — serve at native dtype.
                forecaster.model = None
        if forecaster.model is None:
            forecaster.model = forecaster.spec.build(geometry, **build_kwargs)
        forecaster.model.load_state_dict(artifact.state)
        forecaster.mu = float(artifact.normalization["mu"])
        forecaster.sigma = float(artifact.normalization["sigma"])
        forecaster.categories = artifact.categories
        forecaster.training_ = dict(artifact.training)
        return forecaster
