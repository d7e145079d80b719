"""Flood-zone model — the stand-in for NWS satellite flood imaging.

The paper obtains flooded zones from National Weather Service satellite
imaging and uses them for three things: (a) deciding whether a person's
movement is flooding-affected (ground-truth rescue labels, Section III-B2),
(b) computing the remaining operable road network G̃, and (c) motivating the
severity analysis.  We reproduce the same interface from a physical proxy:
at disaster severity ``s`` in region ``R``, the lowest ``max_flood_fraction
* s`` share of R's terrain is underwater.

Severity is supplied per region as a function of time, so the same model
serves both the Florence evaluation storm and the Michael training storm.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.geo.terrain import PointIndex, TerrainField

#: ``severity_fn(region_id, t_seconds) -> float in [0, 1]``; a pure function
#: of its arguments (waterlines are memoized per region and time).
SeverityFn = Callable[[int, float], float]

#: Waterlines a flood model remembers; past this many (region, t) entries
#: the oldest one is dropped.
WATERLINE_MEMO_SIZE = 8_192


class FloodModel:
    """Terrain + severity -> time-varying flood zones.

    Per-region altitude quantiles are precomputed from a sampled grid, so
    flood queries are O(1) per point: a point is flooded at time ``t`` when
    its altitude is below the region's flood waterline, which is the
    ``max_flood_fraction * severity(region, t)`` quantile of the region's
    altitude distribution.
    """

    def __init__(
        self,
        terrain: TerrainField,
        severity_fn: SeverityFn,
        max_flood_fraction: float = 0.30,
        grid_resolution: int = 80,
    ) -> None:
        if not (0.0 < max_flood_fraction <= 1.0):
            raise ValueError("max_flood_fraction must be in (0, 1]")
        if grid_resolution < 8:
            raise ValueError("grid_resolution too coarse to estimate quantiles")
        self.terrain = terrain
        self.partition = terrain.partition
        self.severity_fn = severity_fn
        self.max_flood_fraction = float(max_flood_fraction)
        self._region_alt_samples = self._sample_region_altitudes(grid_resolution)
        self._waterlines: dict[tuple[int, float], float] = {}

    def _sample_region_altitudes(self, n: int) -> dict[int, np.ndarray]:
        part = self.partition
        xs = np.linspace(0.0, part.width_m, n)
        ys = np.linspace(0.0, part.height_m, n)
        gx, gy = np.meshgrid(xs, ys)
        xy = np.column_stack([gx.ravel(), gy.ravel()])
        alts = self.terrain.altitude_many(xy)
        regions = part.region_of_many(xy)
        samples: dict[int, np.ndarray] = {}
        for rid in part.region_ids:
            vals = np.sort(alts[regions == rid])
            if vals.size == 0:
                # A seed so crowded no grid point lands in its cell; fall
                # back to the seed altitude so queries stay well-defined.
                vals = np.array([self.terrain.altitude(*part.seed_xy(rid))])
            samples[rid] = vals
        return samples

    def waterline_m(self, region_id: int, t_seconds: float) -> float:
        """Flood waterline altitude for a region at time ``t`` (meters).

        Terrain at or below the waterline is flooded.  Severity 0 puts the
        waterline below the region's minimum altitude (nothing flooded).
        Results are memoized per (region, t): dispatch cycles, closure
        queries and flood forecasts ask for the same times again.
        """
        key = (region_id, t_seconds)
        memo = self._waterlines
        cached = memo.get(key)
        if cached is not None:
            return cached
        severity = float(np.clip(self.severity_fn(region_id, t_seconds), 0.0, 1.0))
        alts = self._region_alt_samples[region_id]
        if severity <= 0.0:
            waterline = float(alts[0]) - 1.0
        else:
            frac = self.max_flood_fraction * severity
            waterline = float(np.quantile(alts, frac))
        if len(memo) >= WATERLINE_MEMO_SIZE:
            del memo[next(iter(memo))]
        memo[key] = waterline
        return waterline

    def waterlines(self, t_seconds: float) -> np.ndarray:
        """Every region's waterline at ``t``, one per ``region_ids`` slot."""
        return np.array(
            [self.waterline_m(rid, t_seconds) for rid in self.partition.region_ids]
        )

    def flooded(self, points: PointIndex, t_seconds: float) -> np.ndarray:
        """Flood mask over an indexed point set at time ``t``."""
        return points.altitudes <= points.gather(self.waterlines(t_seconds))

    def is_flooded(self, x: float, y: float, t_seconds: float) -> bool:
        """Whether a plane point is inside a flood zone at time ``t``."""
        rid = self.partition.region_of(x, y)
        return self.terrain.altitude(x, y) <= self.waterline_m(rid, t_seconds)

    def is_flooded_many(self, xy: np.ndarray, t_seconds: float) -> np.ndarray:
        """Vectorized flood query for an (N, 2) array of plane points."""
        return self.flooded(self.terrain.index(xy), t_seconds)

    def flooded_fraction(self, region_id: int, t_seconds: float) -> float:
        """Share of a region's terrain currently underwater, in [0, 1]."""
        alts = self._region_alt_samples[region_id]
        waterline = self.waterline_m(region_id, t_seconds)
        return float(np.mean(alts <= waterline))
