"""Metro-area placement of users and edge nodes.

The paper's real-world deployment placed 20 participants "all within 10
miles away from each other in Minneapolis-Saint Paul metropolitan area";
the emulation placed users/nodes "within 50 miles". :class:`MetroArea`
reproduces such layouts: a named centre point plus seeded samplers that
scatter entities with one of several spatial styles.

Styles:

- ``UNIFORM_DISC`` — uniform over a disc (area-correct, i.e. radius is
  sampled as ``R*sqrt(u)``).
- ``GAUSSIAN`` — 2-D normal around the centre, truncated at the radius;
  denser downtown, sparser suburbs, which matches residential volunteer
  distributions.
- ``CLUSTERED`` — a few Gaussian neighbourhood clusters; models
  suburb-level clumping of volunteers sharing an ISP.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass, field
from typing import List, Optional

from repro.geo.point import GeoPoint

#: Approximate centre of the Minneapolis-Saint Paul metro, the paper's
#: real-world deployment area.
MSP_CENTER = GeoPoint(44.9778, -93.2650)


class PlacementStyle(enum.Enum):
    """Spatial distribution used when scattering entities."""

    UNIFORM_DISC = "uniform_disc"
    GAUSSIAN = "gaussian"
    CLUSTERED = "clustered"


@dataclass
class MetroArea:
    """A disc-shaped metropolitan deployment area.

    Args:
        center: geographic centre.
        radius_km: maximum distance of any placed entity from the centre.
        rng: random source; pass a seeded ``random.Random`` for
            reproducible layouts.
        n_clusters: number of neighbourhood clusters for ``CLUSTERED``.
    """

    center: GeoPoint = MSP_CENTER
    radius_km: float = 16.0  # ~10 miles
    rng: random.Random = field(default_factory=random.Random)
    n_clusters: int = 4
    _clusters: Optional[List[GeoPoint]] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.radius_km <= 0:
            raise ValueError(f"radius_km must be positive: {self.radius_km}")
        if self.n_clusters < 1:
            raise ValueError(f"n_clusters must be >= 1: {self.n_clusters}")

    # ------------------------------------------------------------------
    def sample(self, style: PlacementStyle = PlacementStyle.UNIFORM_DISC) -> GeoPoint:
        """Sample one point with the given placement style."""
        if style is PlacementStyle.UNIFORM_DISC:
            return self._sample_uniform()
        if style is PlacementStyle.GAUSSIAN:
            return self._sample_gaussian()
        if style is PlacementStyle.CLUSTERED:
            return self._sample_clustered()
        raise ValueError(f"unknown placement style: {style}")

    def contains(self, point: GeoPoint) -> bool:
        """True if ``point`` lies within the metro disc."""
        return self.center.distance_km(point) <= self.radius_km + 1e-9

    # ------------------------------------------------------------------
    def _offset_at(self, distance_km: float, bearing_rad: float) -> GeoPoint:
        north = distance_km * math.cos(bearing_rad)
        east = distance_km * math.sin(bearing_rad)
        return self.center.offset_km(north, east)

    def _sample_uniform(self) -> GeoPoint:
        # sqrt for an area-uniform radius distribution over the disc.
        distance = self.radius_km * math.sqrt(self.rng.random())
        bearing = self.rng.uniform(0.0, 2.0 * math.pi)
        return self._offset_at(distance, bearing)

    def _sample_gaussian(self) -> GeoPoint:
        sigma = self.radius_km / 2.5
        for _ in range(64):  # rejection-sample into the disc
            north = self.rng.gauss(0.0, sigma)
            east = self.rng.gauss(0.0, sigma)
            if math.hypot(north, east) <= self.radius_km:
                return self.center.offset_km(north, east)
        return self.center  # vanishingly unlikely fallback

    def _sample_clustered(self) -> GeoPoint:
        if self._clusters is None:
            self._clusters = [self._sample_uniform() for _ in range(self.n_clusters)]
        cluster = self.rng.choice(self._clusters)
        sigma = self.radius_km / 8.0
        for _ in range(64):
            candidate = GeoPoint(
                cluster.lat, cluster.lon
            ).offset_km(self.rng.gauss(0.0, sigma), self.rng.gauss(0.0, sigma))
            if self.contains(candidate):
                return candidate
        return cluster
