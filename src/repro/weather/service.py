"""WeatherService — facade playing the National Weather Service role.

The paper's dispatch center queries NWS for (a) region weather (feeding the
SVM factor vectors) and (b) satellite flood imaging (feeding the operable
network G̃ and ground-truth labeling).  This facade bundles the region
weather field, the terrain and the flood model behind the same two queries.
"""

from __future__ import annotations

import numpy as np

from repro.geo.flood import FloodModel
from repro.geo.terrain import PointIndex, TerrainField
from repro.weather.fields import RegionWeatherField


class WeatherService:
    """One-stop weather/flood query surface for the dispatch pipeline."""

    def __init__(
        self,
        field: RegionWeatherField,
        terrain: TerrainField,
        flood: FloodModel,
    ) -> None:
        if flood.partition is not field.partition:
            raise ValueError("flood model and weather field must share a partition")
        self.field = field
        self.terrain = terrain
        self.flood = flood
        self.partition = field.partition
        self.timeline = field.timeline

    def factor_vector(self, x: float, y: float, t_seconds: float) -> np.ndarray:
        """Disaster-related factor vector h = (precipitation, wind, altitude)
        at a plane position (paper Section IV-B)."""
        rid = self.partition.region_of(x, y)
        return np.array(
            [
                self.field.factor_precipitation_mm_per_h(rid, t_seconds),
                self.field.factor_wind_mph(rid, t_seconds),
                self.terrain.altitude(x, y),
            ]
        )

    def factors(self, points: PointIndex, t_seconds: float) -> np.ndarray:
        """Factor vectors of an indexed point set: each region's weather is
        evaluated once and gathered to its points."""
        rids = self.partition.region_ids
        field = self.field
        precip = np.array([field.factor_precipitation_mm_per_h(r, t_seconds) for r in rids])
        wind = np.array([field.factor_wind_mph(r, t_seconds) for r in rids])
        return np.column_stack([points.gather(precip), points.gather(wind), points.altitudes])

    def factor_vectors(self, xy: np.ndarray, t_seconds: float) -> np.ndarray:
        """Vectorized :meth:`factor_vector` for an (N, 2) array of points."""
        return self.factors(self.terrain.index(xy), t_seconds)

    def is_flooded(self, x: float, y: float, t_seconds: float) -> bool:
        """Satellite-imaging flood query for a single position."""
        return self.flood.is_flooded(x, y, t_seconds)

    def severity(self, region_id: int, t_seconds: float) -> float:
        return self.field.severity(region_id, t_seconds)
