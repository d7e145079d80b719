"""Smooth synthetic terrain (altitude field) over the city plane.

Altitude is one of the three disaster-related factors (paper Section IV-B).
The paper reads a person's altitude from their cellphone altimeter; we
synthesize a deterministic smooth field whose per-region averages match the
region profiles (Fig. 1: R1 = 232.86 m, R2 = 195.07 m, ...).

The field is an inverse-distance-weighted blend of the region base
altitudes plus a small smooth sinusoidal relief, so that (a) region averages
land close to the profile values and (b) each region has internal altitude
variation — which is what makes partial flooding of a region possible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geo.regions import RegionPartition


@dataclass(frozen=True)
class PointIndex:
    """Static geometry of a fixed point set.

    ``altitudes`` holds each point's altitude and ``slots`` the index of
    its region in ``partition.region_ids``.  Neither depends on time, so a
    caller that queries the same points again and again builds the index
    once; a time-varying per-region quantity (one value per slot) then
    reaches every point through :meth:`gather`.
    """

    altitudes: np.ndarray
    slots: np.ndarray

    def gather(self, per_region: np.ndarray) -> np.ndarray:
        """Broadcast one value per region slot to the points."""
        return per_region[self.slots]

    def take(self, idx: np.ndarray) -> "PointIndex":
        """The index restricted to the points at positions ``idx``."""
        return PointIndex(self.altitudes[idx], self.slots[idx])


class TerrainField:
    """Deterministic altitude field ``altitude(x, y) -> meters``."""

    #: Peak-to-peak amplitude of the intra-region relief, meters.
    RELIEF_AMPLITUDE_M = 18.0

    def __init__(self, partition: RegionPartition, relief_wavelength_m: float = 4_000.0) -> None:
        if relief_wavelength_m <= 0:
            raise ValueError("relief wavelength must be positive")
        self.partition = partition
        self._wavelength = float(relief_wavelength_m)
        self._seeds = np.array(
            [partition.seed_xy(r) for r in partition.region_ids]
        )
        self._base_alts = np.array(
            [partition.profile(r).altitude_m for r in partition.region_ids]
        )
        # IDW softening length: well under the inter-seed spacing so each
        # region is dominated by its own base altitude while boundaries blend.
        self._idw_eps = 0.07 * max(partition.width_m, partition.height_m)

    def altitude(self, x: float, y: float) -> float:
        """Altitude at a single plane point, meters."""
        return float(self.altitude_many(np.array([[x, y]]))[0])

    def index(self, xy: np.ndarray) -> PointIndex:
        """Altitude and region slot of an (N, 2) array of plane points."""
        return PointIndex(self.altitude_many(xy), self.partition.slot_of_many(xy))

    def altitude_many(self, xy: np.ndarray) -> np.ndarray:
        """Vectorized altitude for an (N, 2) array of plane points."""
        xy = np.asarray(xy, dtype=float)
        if xy.ndim != 2 or xy.shape[1] != 2:
            raise ValueError("xy must have shape (N, 2)")
        d2 = ((xy[:, None, :] - self._seeds[None, :, :]) ** 2).sum(axis=2)
        w = 1.0 / (d2 + self._idw_eps**2)
        base = (w * self._base_alts[None, :]).sum(axis=1) / w.sum(axis=1)
        k = 2.0 * np.pi / self._wavelength
        relief = (self.RELIEF_AMPLITUDE_M / 2.0) * (
            np.sin(k * xy[:, 0]) * np.cos(0.7 * k * xy[:, 1])
            + 0.5 * np.sin(1.7 * k * xy[:, 1] + 1.3)
        )
        return base + relief
