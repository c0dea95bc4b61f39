"""Dataset assembly: city configs → ready-to-train ``CrimeDataset`` objects.

``load_city`` is the single entry point used by examples, tests and
benchmarks.  A full-scale dataset matches the paper's Table II; passing
``rows/cols/num_days`` yields the reduced-scale variants used by the
benchmark harness (6x6 regions, ~100 days in ``benchmarks/common.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from typing import Iterable

from .density import density_degree
from .grid import GridSegmentation
from .schema import CHICAGO_CONFIG, NYC_CONFIG, CityConfig, CrimeEvent
from .splits import TemporalSplit, temporal_split
from .synthetic import SyntheticCrimeGenerator
from .tensorize import events_to_tensor, zscore_stats

__all__ = ["CrimeDataset", "load_city", "dataset_from_events", "CITY_CONFIGS"]

CITY_CONFIGS: dict[str, CityConfig] = {
    "nyc": NYC_CONFIG,
    "chicago": CHICAGO_CONFIG,
}


@dataclass(frozen=True)
class CrimeDataset:
    """A city's crime tensor plus everything needed to train and evaluate."""

    config: CityConfig
    grid: GridSegmentation
    tensor: np.ndarray  # X[R, T, C] daily counts
    split: TemporalSplit
    mu: float
    sigma: float

    @property
    def num_regions(self) -> int:
        return self.tensor.shape[0]

    @property
    def num_days(self) -> int:
        return self.tensor.shape[1]

    @property
    def num_categories(self) -> int:
        return self.tensor.shape[2]

    @property
    def categories(self) -> tuple[str, ...]:
        return self.config.categories

    def normalized(self) -> np.ndarray:
        """Z-scored tensor using *training-period* statistics (Eq 1)."""
        return (self.tensor - self.mu) / self.sigma

    def density(self) -> np.ndarray:
        """Per-region density degree over the full span."""
        return density_degree(self.tensor)

    def category_totals(self) -> dict[str, int]:
        """Observed total case counts per category (compare to Table II)."""
        totals = self.tensor.sum(axis=(0, 1))
        return {name: int(count) for name, count in zip(self.categories, totals)}


def load_city(
    city: str,
    seed: int = 0,
    rows: int | None = None,
    cols: int | None = None,
    num_days: int | None = None,
) -> CrimeDataset:
    """Build a (synthetic) dataset for ``city`` ("nyc" or "chicago").

    Omitting the size overrides gives the full Table II scale; any subset
    of ``rows/cols/num_days`` may be overridden for reduced-scale runs.
    Z-score statistics are computed on the training span only, to avoid
    test leakage.
    """
    key = city.lower()
    if key not in CITY_CONFIGS:
        raise KeyError(f"unknown city {city!r}; expected one of {sorted(CITY_CONFIGS)}")
    config = CITY_CONFIGS[key]
    if rows is not None or cols is not None or num_days is not None:
        config = config.scaled(
            rows=rows or config.rows,
            cols=cols or config.cols,
            num_days=num_days or config.num_days,
        )
    generator = SyntheticCrimeGenerator(config, seed=seed)
    tensor = generator.generate_tensor()
    return _assemble(config, generator.grid, tensor)


def dataset_from_events(events: Iterable[CrimeEvent], config: CityConfig) -> CrimeDataset:
    """Build a :class:`CrimeDataset` from raw crime reports.

    This is the path a user with *real* crime feeds takes: read reports
    with :func:`repro.data.read_events_csv`, describe the city with a
    :class:`CityConfig`, and get back the same dataset object the
    synthetic loaders produce — splits, z-score statistics and all.
    """
    grid = GridSegmentation(config.bbox, config.rows, config.cols)
    tensor = events_to_tensor(
        events, grid, config.start_date, config.num_days, config.categories
    )
    return _assemble(config, grid, tensor)


def _assemble(config: CityConfig, grid: GridSegmentation, tensor) -> CrimeDataset:
    split = temporal_split(config.num_days)
    mu, sigma = zscore_stats(split.slice_train(tensor))
    return CrimeDataset(
        config=config,
        grid=grid,
        tensor=tensor,
        split=split,
        mu=mu,
        sigma=sigma,
    )
