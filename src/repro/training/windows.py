"""Sliding-window sample construction.

Each training sample pairs a ``window``-day normalised history
``X[:, t-W:t, :]`` with the next-day target ``X[:, t, :]`` — the
"predict time slot T+1 from the previous T slots" task of paper §II.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..data.datasets import CrimeDataset

__all__ = ["WindowSample", "WindowBatch", "WindowDataset"]


@dataclass(frozen=True)
class WindowSample:
    """One supervised sample.  ``window``/``target`` are normalised;
    ``raw_target`` keeps original counts for metric computation."""

    day: int  # target day index in the full tensor
    window: np.ndarray  # (R, W, C) z-scored history
    target: np.ndarray  # (R, C) z-scored next day
    raw_target: np.ndarray  # (R, C) counts


@dataclass(frozen=True)
class WindowBatch:
    """A contiguous stack of samples for one vectorized model invocation."""

    days: tuple[int, ...]  # target day index of each stacked sample
    windows: np.ndarray  # (B, R, W, C) z-scored histories
    targets: np.ndarray  # (B, R, C) z-scored next days
    raw_targets: np.ndarray  # (B, R, C) counts

    @property
    def size(self) -> int:
        return len(self.days)


class WindowDataset:
    """Windowed view of a :class:`CrimeDataset` honouring its splits."""

    def __init__(self, dataset: CrimeDataset, window: int):
        if window >= dataset.split.train_end:
            raise ValueError(
                f"window {window} does not fit in the training span "
                f"({dataset.split.train_end} days)"
            )
        self.dataset = dataset
        self.window = window
        self._normalized = dataset.normalized()

    def _sample(self, day: int) -> WindowSample:
        return WindowSample(
            day=day,
            window=self._normalized[:, day - self.window : day, :],
            target=self._normalized[:, day, :],
            raw_target=self.dataset.tensor[:, day, :],
        )

    def _days(self, split: str) -> range:
        s = self.dataset.split
        if split == "train":
            return range(self.window, s.train_end)
        if split == "val":
            return range(s.train_end, s.val_end)
        if split == "test":
            return range(s.val_end, s.test_end)
        raise ValueError(f"unknown split {split!r}")

    def samples(self, split: str) -> Iterator[WindowSample]:
        """All samples of a split in chronological order.

        Validation and test windows may reach back into earlier periods
        (the model sees history, not labels, so this is not leakage).
        """
        for day in self._days(split):
            yield self._sample(day)

    def _batch(self, days) -> WindowBatch:
        """Stack the samples of ``days`` into contiguous batch arrays."""
        samples = [self._sample(int(day)) for day in days]
        return WindowBatch(
            days=tuple(s.day for s in samples),
            windows=np.stack([s.window for s in samples]),
            targets=np.stack([s.target for s in samples]),
            raw_targets=np.stack([s.raw_target for s in samples]),
        )

    def batches(self, split: str, batch_size: int) -> Iterator[WindowBatch]:
        """Chronological batches of a split (for vectorized evaluation)."""
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        days = list(self._days(split))
        for start in range(0, len(days), batch_size):
            yield self._batch(days[start : start + batch_size])

    def train_batches(
        self, rng: np.random.Generator, batch_size: int, limit: int | None = None
    ) -> Iterator[WindowBatch]:
        """Shuffled training batches.

        One shuffle of the training days per call, chunked into stacks of
        ``batch_size`` — so the visit order depends on the RNG alone, not
        on the batch size.  ``limit`` caps windows per epoch, the knob the
        reduced-scale benchmark protocol uses to bound epoch cost.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        days = np.fromiter(self._days("train"), dtype=int)
        rng.shuffle(days)
        if limit is not None:
            days = days[:limit]
        for start in range(0, len(days), batch_size):
            yield self._batch(days[start : start + batch_size])

    def denormalize(self, values: np.ndarray) -> np.ndarray:
        """Map normalised predictions back to case counts (floored at 0)."""
        counts = values * self.dataset.sigma + self.dataset.mu
        return np.maximum(counts, 0.0)
