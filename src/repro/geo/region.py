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
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass, field

from repro.geo.point import GeoPoint

#: Approximate centre of the Minneapolis-Saint Paul metro, the paper's
#: real-world deployment area.
MSP_CENTER = GeoPoint(44.9778, -93.2650)


class PlacementStyle(enum.Enum):
    """Spatial distribution used when scattering entities."""

    UNIFORM_DISC = "uniform_disc"
    GAUSSIAN = "gaussian"


@dataclass
class MetroArea:
    """A disc-shaped metropolitan deployment area.

    Args:
        center: geographic centre.
        radius_km: maximum distance of any placed entity from the centre.
        rng: random source; pass a seeded ``random.Random`` for
            reproducible layouts.
    """

    center: GeoPoint = MSP_CENTER
    radius_km: float = 16.0  # ~10 miles
    rng: random.Random = field(default_factory=random.Random)

    def __post_init__(self) -> None:
        if self.radius_km <= 0:
            raise ValueError(f"radius_km must be positive: {self.radius_km}")

    # ------------------------------------------------------------------
    def sample(self, style: PlacementStyle = PlacementStyle.UNIFORM_DISC) -> GeoPoint:
        """Sample one point with the given placement style."""
        if style is PlacementStyle.UNIFORM_DISC:
            return self._sample_uniform()
        if style is PlacementStyle.GAUSSIAN:
            return self._sample_gaussian()
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
