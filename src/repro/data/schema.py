"""Data schema: crime events, bounding boxes and city configurations.

Crime reports carry ``<crime type, timestamp, longitude, latitude>``
(paper §II, "Urban Crime Data"); a city configuration fixes the spatial
bounding box, grid resolution, time span and per-category case volumes
that the synthetic generator is calibrated against (paper Table II).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date, datetime

__all__ = ["BoundingBox", "CrimeEvent", "CityConfig", "NYC_CONFIG", "CHICAGO_CONFIG"]


@dataclass(frozen=True)
class BoundingBox:
    """Geographic extent of the urban space, in decimal degrees."""

    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float

    def __post_init__(self) -> None:
        if self.lat_min >= self.lat_max:
            raise ValueError(f"lat_min {self.lat_min} >= lat_max {self.lat_max}")
        if self.lon_min >= self.lon_max:
            raise ValueError(f"lon_min {self.lon_min} >= lon_max {self.lon_max}")

    def contains(self, lat: float, lon: float) -> bool:
        return self.lat_min <= lat <= self.lat_max and self.lon_min <= lon <= self.lon_max


@dataclass(frozen=True)
class CrimeEvent:
    """A single crime report record."""

    category: str
    timestamp: datetime
    longitude: float
    latitude: float


@dataclass(frozen=True)
class CityConfig:
    """Static description of one experiment city.

    ``rows × cols`` is the grid-based map segmentation (paper §II applies a
    3km×3km grid yielding 256 regions for NYC and 168 for Chicago);
    ``total_cases`` are the Table II per-category volumes the synthetic
    generator reproduces in expectation.
    """

    name: str
    bbox: BoundingBox
    rows: int
    cols: int
    start_date: date
    num_days: int
    categories: tuple[str, ...]
    total_cases: tuple[int, ...]
    # Skew / sparsity calibration knobs (see repro.data.synthetic).
    spatial_skew: float = 1.6
    spatial_correlation: float = 1.5
    category_correlation: float = 0.6
    weekly_amplitude: float = 0.25
    seasonal_amplitude: float = 0.30

    def __post_init__(self) -> None:
        if len(self.categories) != len(self.total_cases):
            raise ValueError("categories and total_cases must align")
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("grid dimensions must be positive")
        if self.num_days <= 0:
            raise ValueError("num_days must be positive")

    @property
    def num_regions(self) -> int:
        return self.rows * self.cols

    @property
    def num_categories(self) -> int:
        return len(self.categories)

    def scaled(self, rows: int, cols: int, num_days: int) -> "CityConfig":
        """Return a reduced-scale copy preserving statistical character.

        Case volumes shrink proportionally to the region-count and
        day-count reduction so per-cell sparsity stays comparable to the
        full-scale city.
        """
        factor = (rows * cols * num_days) / (self.num_regions * self.num_days)
        totals = tuple(max(1, int(round(n * factor))) for n in self.total_cases)
        return CityConfig(
            name=self.name,
            bbox=self.bbox,
            rows=rows,
            cols=cols,
            start_date=self.start_date,
            num_days=num_days,
            categories=self.categories,
            total_cases=totals,
            spatial_skew=self.spatial_skew,
            spatial_correlation=self.spatial_correlation,
            category_correlation=self.category_correlation,
            weekly_amplitude=self.weekly_amplitude,
            seasonal_amplitude=self.seasonal_amplitude,
        )


# Paper Table II: NYC-Crimes, Jan 2014 – Dec 2015, 256 regions (16×16 grid),
# four categories with the listed case counts.
NYC_CONFIG = CityConfig(
    name="nyc",
    bbox=BoundingBox(40.50, 40.93, -74.25, -73.70),
    rows=16,
    cols=16,
    start_date=date(2014, 1, 1),
    num_days=730,
    categories=("Burglary", "Larceny", "Robbery", "Assault"),
    total_cases=(31_799, 85_899, 33_453, 40_429),
)

# Paper Table II: Chicago-Crimes, Jan 2016 – Dec 2017, 168 regions (14×12).
CHICAGO_CONFIG = CityConfig(
    name="chicago",
    bbox=BoundingBox(41.64, 42.02, -87.94, -87.52),
    rows=14,
    cols=12,
    start_date=date(2016, 1, 1),
    num_days=731,
    categories=("Theft", "Battery", "Assault", "Damage"),
    total_cases=(124_630, 99_389, 37_972, 59_886),
)
