"""Training loop with validation-based early stopping.

Implements Algorithm 1 of the paper generically: every model (ST-HSL or
baseline) is optimised with Adam under an identical budget, which keeps
the Table III comparison like-for-like.  Windows are visited in random
order, ``batch_size`` per optimizer step (the paper searches batch size
in {4, 8, 16, 32}), and each step runs the model's
``training_loss_batch`` over the stacked ``(B, R, T, C)`` batch: one
vectorized pass for batched-native models, one ``forward`` per window
under :class:`~repro.training.interface.ForecastModel`'s default for the
others.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .. import nn
from .metrics import masked_mae
from .windows import WindowDataset

__all__ = ["EpochStats", "TrainResult", "Trainer"]

#: Global gradient-norm clip applied before every optimizer step.
CLIP_NORM = 5.0


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


class Trainer:
    """Adam trainer with one batched step per batch and early stopping.

    Every step calls the model's ``training_loss_batch``, a mean over the
    batch, so its gradient is the average of the per-sample gradients.
    Validation stacks windows through ``predict_batch``.
    """

    def __init__(
        self,
        model,
        lr: float = 1e-3,
        weight_decay: float = 0.0,
        batch_size: int = 4,
        seed: int = 0,
    ):
        self.model = model
        self.optimizer = nn.Adam(model.parameters(), lr=lr, weight_decay=weight_decay)
        # Parameterless models (statistical baselines) skip the optimizer
        # step entirely; their losses are constants with no graph to walk.
        self._has_params = bool(self.optimizer.params)
        self.batch_size = batch_size
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    def fit(
        self,
        windows: WindowDataset,
        epochs: int,
        patience: int | None = None,
        train_limit: int | None = None,
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
        if result.best_state is not None:
            self.model.load_state_dict(result.best_state)
        return result

    # ------------------------------------------------------------------
    def _train_epoch(self, windows: WindowDataset, train_limit: int | None) -> float:
        """One forward/backward/step per batch of windows."""
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
            if self._has_params:
                nn.clip_grad_norm(self.optimizer.params, CLIP_NORM)
                self.optimizer.step()
                self.optimizer.zero_grad()
        return total / count if count else float("nan")

    # ------------------------------------------------------------------
    def validate(self, windows: WindowDataset) -> float:
        """Masked MAE (in case counts) over the validation split."""
        self.model.eval()
        errors: list[float] = []
        # Evaluation holds no graph, so stacks larger than a training
        # batch cost little memory.
        for batch in windows.batches("val", max(self.batch_size, 16)):
            preds = windows.denormalize(self.model.predict_batch(batch.windows))
            for pred, raw in zip(preds, batch.raw_targets):
                value = masked_mae(pred, raw)
                if not np.isnan(value):
                    errors.append(value)
        return float(np.mean(errors)) if errors else float("nan")

    def timed_epoch(self, windows: WindowDataset, train_limit: int | None = None) -> float:
        """Wall-clock seconds for one training epoch (Table V's measure)."""
        start = time.perf_counter()
        self._train_epoch(windows, train_limit)
        return time.perf_counter() - start
