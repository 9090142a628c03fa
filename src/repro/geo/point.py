"""Geographic points and great-circle distance."""

from __future__ import annotations

import math
from dataclasses import dataclass

EARTH_RADIUS_KM = 6371.0088  # IUGG mean Earth radius
#: km per degree of latitude (the local-tangent-plane scale).
KM_PER_DEG_LAT = 111.32


@dataclass(frozen=True)
class GeoPoint:
    """A WGS84 latitude/longitude pair in decimal degrees.

    Latitude is clamped-checked to [-90, 90]; longitude to [-180, 180].
    The class is frozen and hashable so points can key dictionaries
    (e.g. cached pairwise distances).
    """

    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude out of range [-90, 90]: {self.lat}")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude out of range [-180, 180]: {self.lon}")

    def distance_km(self, other: "GeoPoint") -> float:
        """Great-circle distance to ``other`` in kilometres."""
        return haversine_km(self, other)

    def offset_km(self, north_km: float, east_km: float) -> "GeoPoint":
        """Return a new point displaced by the given kilometres.

        Uses the local-tangent-plane approximation, which is accurate to
        well under 1% at metro scale (tens of km) — the scale at which the
        paper's experiments operate (users within 10-50 miles).
        """
        dlat = north_km / KM_PER_DEG_LAT
        km_per_deg_lon = KM_PER_DEG_LAT * math.cos(math.radians(self.lat))
        if abs(km_per_deg_lon) < 1e-9:
            raise ValueError("cannot offset east/west at the pole")
        dlon = east_km / km_per_deg_lon
        return GeoPoint(self.lat + dlat, self.lon + dlon)

    def __str__(self) -> str:
        return f"({self.lat:.5f}, {self.lon:.5f})"


def haversine_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points, in kilometres.

    Standard haversine formula; numerically stable for the short
    (metro-scale) distances this library mostly deals with.
    """
    return haversine_km_coords(a.lat, a.lon, b.lat, b.lon)


def haversine_km_coords(
    alat: float, alon: float, blat: float, blon: float
) -> float:
    """:func:`haversine_km` on raw coordinates.

    Hot paths (discovery filtering over thousands of heartbeats) call
    this directly on stored lat/lon floats, skipping GeoPoint
    construction per candidate. Bit-identical to :func:`haversine_km` —
    that function delegates here — which selection-parity guarantees
    rely on.
    """
    lat1, lon1 = math.radians(alat), math.radians(alon)
    lat2, lon2 = math.radians(blat), math.radians(blon)
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = (
        math.sin(dlat / 2.0) ** 2
        + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    )
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))
