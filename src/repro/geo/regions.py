"""The 7-region partition of the city (paper Fig. 1).

The paper partitions Charlotte into the 7 City Council districts and
annotates each with its average precipitation P (mm), wind speed W (mph) and
altitude A (m) during the hurricane.  Only R1 and R2 are given numerically in
the paper (R1: P=127, W=61, A=232.86; R2: P=152, W=72, A=195.07); the
remaining profiles are interpolated to be consistent with the paper's
narrative: Region 3 is the central downtown, is hit hardest, and receives
most rescue requests (Fig. 4), and impact severity orders regions the same
way P and W do (Table I correlation signs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RegionProfile:
    """Static description of one council-district region.

    ``seed`` is the region's representative point, expressed as fractions
    (fx, fy) of the city plane's width/height; the partition is the Voronoi
    diagram of the seeds.
    """

    region_id: int
    name: str
    precipitation_mm: float
    wind_mph: float
    altitude_m: float
    seed: tuple[float, float]

    def __post_init__(self) -> None:
        if self.region_id < 1:
            raise ValueError("region_id is 1-based")
        if not (0.0 <= self.seed[0] <= 1.0 and 0.0 <= self.seed[1] <= 1.0):
            raise ValueError("seed must be expressed as plane fractions in [0, 1]")

    @property
    def severity(self) -> float:
        """Scalar disaster-impact severity in [0, 1].

        Combines the disaster-related factors with the weighting implied by
        Table I (|corr|: precipitation > wind speed > altitude): severity
        rises with precipitation and wind and falls with altitude.
        """
        p = np.clip((self.precipitation_mm - 110.0) / 60.0, 0.0, 1.0)
        w = np.clip((self.wind_mph - 50.0) / 35.0, 0.0, 1.0)
        a = np.clip((250.0 - self.altitude_m) / 80.0, 0.0, 1.0)
        return float(0.5 * p + 0.3 * w + 0.2 * a)


#: Per-region profiles for the Hurricane Florence scenario (paper Fig. 1).
#: R1/R2 values are the paper's; R3 is downtown (center seed, hit hardest).
#: The interpolated regions deliberately decorrelate the three factors
#: (e.g. R5 is rainy but high ground, R6 is drier lowland): with perfectly
#: collinear factors, every factor would correlate with flow identically,
#: whereas the paper's Table I finds |precipitation| > |wind| > |altitude|.
CHARLOTTE_REGION_PROFILES: tuple[RegionProfile, ...] = (
    RegionProfile(1, "R1 (north ridge)", 127.0, 61.0, 232.86, (0.28, 0.82)),
    RegionProfile(2, "R2 (east lowland)", 152.0, 72.0, 195.07, (0.80, 0.60)),
    RegionProfile(3, "R3 (downtown)", 165.0, 78.0, 181.40, (0.50, 0.50)),
    RegionProfile(4, "R4 (west)", 140.0, 70.0, 211.30, (0.18, 0.45)),
    RegionProfile(5, "R5 (south creek)", 148.0, 64.0, 221.00, (0.55, 0.18)),
    RegionProfile(6, "R6 (north-east)", 133.0, 63.0, 198.50, (0.72, 0.88)),
    RegionProfile(7, "R7 (south-west)", 144.0, 68.0, 205.80, (0.25, 0.14)),
)


class RegionPartition:
    """Voronoi partition of the local plane into regions.

    Region membership of any point is decided by the nearest region seed;
    this mirrors how the paper assigns road segments and GPS fixes to
    Council districts.
    """

    def __init__(
        self,
        profiles: tuple[RegionProfile, ...] | list[RegionProfile],
        width_m: float,
        height_m: float,
    ) -> None:
        if not profiles:
            raise ValueError("at least one region profile is required")
        ids = [p.region_id for p in profiles]
        if len(set(ids)) != len(ids):
            raise ValueError("region ids must be unique")
        if width_m <= 0 or height_m <= 0:
            raise ValueError("plane dimensions must be positive")
        self.profiles: tuple[RegionProfile, ...] = tuple(
            sorted(profiles, key=lambda p: p.region_id)
        )
        self.width_m = float(width_m)
        self.height_m = float(height_m)
        self._seeds_xy = np.array(
            [(p.seed[0] * width_m, p.seed[1] * height_m) for p in self.profiles]
        )
        self._ids = np.array([p.region_id for p in self.profiles])
        self._by_id = {p.region_id: p for p in self.profiles}

    @property
    def region_ids(self) -> list[int]:
        return [int(i) for i in self._ids]

    def profile(self, region_id: int) -> RegionProfile:
        try:
            return self._by_id[region_id]
        except KeyError:
            raise KeyError(f"unknown region id {region_id}") from None

    def seed_xy(self, region_id: int) -> tuple[float, float]:
        p = self.profile(region_id)
        return (p.seed[0] * self.width_m, p.seed[1] * self.height_m)

    def region_of(self, x: float, y: float) -> int:
        """Region id of a single plane point (nearest seed)."""
        d2 = (self._seeds_xy[:, 0] - x) ** 2 + (self._seeds_xy[:, 1] - y) ** 2
        return int(self._ids[int(np.argmin(d2))])

    def slot_of_many(self, xy: np.ndarray) -> np.ndarray:
        """Each point's region as an index into :attr:`region_ids`."""
        xy = np.asarray(xy, dtype=float)
        if xy.ndim != 2 or xy.shape[1] != 2:
            raise ValueError("xy must have shape (N, 2)")
        d2 = ((xy[:, None, :] - self._seeds_xy[None, :, :]) ** 2).sum(axis=2)
        return np.argmin(d2, axis=1)

    def region_of_many(self, xy: np.ndarray) -> np.ndarray:
        """Vectorized region lookup for an (N, 2) array of plane points."""
        return self._ids[self.slot_of_many(xy)]


def charlotte_regions(width_m: float, height_m: float) -> RegionPartition:
    """The 7-region Charlotte partition on a plane of the given extent."""
    return RegionPartition(CHARLOTTE_REGION_PROFILES, width_m, height_m)
