"""Training loop with validation-based early stopping.

Implements Algorithm 1 of the paper generically: every model (ST-HSL or
baseline) is optimised with Adam under an identical budget, which keeps
the Table III comparison like-for-like.  Windows are visited in random
order, ``batch_size`` per optimizer step (the paper searches batch size
in {4, 8, 16, 32}): models with a batched forward run each step as one
vectorized pass over a stacked ``(B, R, T, C)`` batch, others accumulate
per-sample gradients.  With dropout disabled the two paths take
numerically identical steps; with dropout on they draw masks in a
different order and correspond to two equally-valid training runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .. import nn
from .metrics import masked_mae
from .windows import WindowDataset

__all__ = ["EpochStats", "TrainResult", "Trainer"]


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    val_mae: float
    seconds: float


@dataclass
class TrainResult:
    history: list[EpochStats] = field(default_factory=list)
    best_epoch: int = -1
    best_val_mae: float = float("inf")
    best_state: dict | None = None

    @property
    def epoch_seconds(self) -> list[float]:
        return [stats.seconds for stats in self.history]


class Trainer:
    """Adam trainer with batched steps (or gradient accumulation) and early stopping.

    Models exposing ``training_loss_batch`` / ``predict_batch`` (ST-HSL)
    run one vectorized forward/backward per batch; other models fall back
    to the per-sample loop with gradient accumulation.  Both paths take
    identical optimizer steps when dropout is off: the batched loss is a
    mean over the batch, matching the accumulated-and-averaged per-sample
    gradients (dropout draws its masks in a different order per path).

    ``use_batched`` forces the choice (``None`` auto-detects) — the
    equivalence tests use this to run the per-sample reference on a model
    that supports batching.
    """

    def __init__(
        self,
        model,
        lr: float = 1e-3,
        weight_decay: float = 0.0,
        clip_norm: float = 5.0,
        batch_size: int = 4,
        seed: int = 0,
        use_batched: bool | None = None,
        eval_batch_size: int | None = None,
    ):
        self.model = model
        self.optimizer = nn.Adam(model.parameters(), lr=lr, weight_decay=weight_decay)
        # Parameterless models (statistical baselines) skip the optimizer
        # step entirely; their losses are constants with no graph to walk.
        self._has_params = bool(self.optimizer.params)
        self.clip_norm = clip_norm
        self.batch_size = batch_size
        if use_batched is None:
            use_batched = hasattr(model, "training_loss_batch")
        elif use_batched and not hasattr(model, "training_loss_batch"):
            raise ValueError(f"{type(model).__name__} does not implement training_loss_batch")
        self.use_batched = use_batched
        # Evaluation has no graph to hold, so larger stacks are pure win.
        self.eval_batch_size = eval_batch_size if eval_batch_size is not None else max(batch_size, 16)
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    def fit(
        self,
        windows: WindowDataset,
        epochs: int,
        patience: int | None = None,
        train_limit: int | None = None,
        restore_best: bool = True,
        verbose: bool = False,
    ) -> TrainResult:
        """Train for up to ``epochs`` epochs.

        ``train_limit`` caps windows per epoch (reduced-scale protocol);
        ``patience`` stops after that many epochs without validation
        improvement; the best checkpoint is restored on exit.
        """
        result = TrainResult()
        stale = 0
        for epoch in range(epochs):
            start = time.perf_counter()
            train_loss = self._train_epoch(windows, train_limit)
            val_mae = self.validate(windows)
            seconds = time.perf_counter() - start
            result.history.append(
                EpochStats(epoch=epoch, train_loss=train_loss, val_mae=val_mae, seconds=seconds)
            )
            if verbose:
                print(f"epoch {epoch}: loss={train_loss:.4f} val_mae={val_mae:.4f} ({seconds:.1f}s)")
            if val_mae < result.best_val_mae or result.best_state is None:
                result.best_val_mae = val_mae
                result.best_epoch = epoch
                result.best_state = self.model.state_dict()
                stale = 0
            else:
                stale += 1
                if patience is not None and stale > patience:
                    break
        if restore_best and result.best_state is not None:
            self.model.load_state_dict(result.best_state)
        return result

    # ------------------------------------------------------------------
    def _train_epoch(self, windows: WindowDataset, train_limit: int | None) -> float:
        if self.use_batched:
            return self._train_epoch_batched(windows, train_limit)
        return self._train_epoch_sequential(windows, train_limit)

    def _train_epoch_batched(self, windows: WindowDataset, train_limit: int | None) -> float:
        """One vectorized forward/backward/step per batch of windows."""
        self.model.train()
        total = 0.0
        count = 0
        self.optimizer.zero_grad()
        for batch in windows.train_batches(self._rng, self.batch_size, limit=train_limit):
            loss = self.model.training_loss_batch(batch.windows, batch.targets)
            if loss.requires_grad:
                loss.backward()
            total += float(loss.data) * batch.size
            count += batch.size
            # The batched loss is already a mean over the batch, so the
            # gradients match the per-sample path's accumulate-and-average.
            if self._has_params:
                if self.clip_norm:
                    nn.clip_grad_norm(self.optimizer.params, self.clip_norm)
                self.optimizer.step()
                self.optimizer.zero_grad()
        return total / count if count else float("nan")

    def _train_epoch_sequential(self, windows: WindowDataset, train_limit: int | None) -> float:
        self.model.train()
        losses: list[float] = []
        pending = 0
        self.optimizer.zero_grad()
        for sample in windows.shuffled_train(self._rng, limit=train_limit):
            loss = self.model.training_loss(sample.window, sample.target)
            # Parameterless models return a constant loss with no graph.
            if loss.requires_grad:
                loss.backward()
            losses.append(float(loss.data))
            pending += 1
            if pending == self.batch_size:
                self._apply_step(pending)
                pending = 0
        if pending:
            self._apply_step(pending)
        return float(np.mean(losses)) if losses else float("nan")

    def _apply_step(self, accumulated: int) -> None:
        if not self._has_params:
            return
        # Average accumulated gradients so the step size is batch-invariant.
        for param in self.optimizer.params:
            if param.grad is not None:
                param.grad /= accumulated
        if self.clip_norm:
            nn.clip_grad_norm(self.optimizer.params, self.clip_norm)
        self.optimizer.step()
        self.optimizer.zero_grad()

    # ------------------------------------------------------------------
    def validate(self, windows: WindowDataset) -> float:
        """Masked MAE (in case counts) over the validation split."""
        self.model.eval()
        errors: list[float] = []
        if self.use_batched and hasattr(self.model, "predict_batch"):
            for batch in windows.batches("val", self.eval_batch_size):
                preds = windows.denormalize(self.model.predict_batch(batch.windows))
                for pred, raw in zip(preds, batch.raw_targets):
                    value = masked_mae(pred, raw)
                    if not np.isnan(value):
                        errors.append(value)
        else:
            for sample in windows.samples("val"):
                pred = windows.denormalize(self.model.predict(sample.window))
                value = masked_mae(pred, sample.raw_target)
                if not np.isnan(value):
                    errors.append(value)
        return float(np.mean(errors)) if errors else float("nan")

    def timed_epoch(self, windows: WindowDataset, train_limit: int | None = None) -> float:
        """Wall-clock seconds for one training epoch (Table V's measure)."""
        start = time.perf_counter()
        self._train_epoch(windows, train_limit)
        return time.perf_counter() - start
