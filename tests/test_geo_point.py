"""Unit tests for GeoPoint and haversine distance."""

import pytest
from hypothesis import given, strategies as st

from repro.geo.point import GeoPoint, haversine_km

MSP = GeoPoint(44.9778, -93.2650)
STP = GeoPoint(44.9537, -93.0900)  # Saint Paul, ~14 km east
CHICAGO = GeoPoint(41.8781, -87.6298)


def test_distance_to_self_is_zero():
    assert MSP.distance_km(MSP) == pytest.approx(0.0)


def test_known_metro_distance():
    # Minneapolis to Saint Paul is ~14 km.
    assert MSP.distance_km(STP) == pytest.approx(14.0, abs=1.5)


def test_known_long_distance():
    # Minneapolis to Chicago is ~570 km.
    assert MSP.distance_km(CHICAGO) == pytest.approx(570.0, abs=20.0)


def test_distance_is_symmetric():
    assert MSP.distance_km(CHICAGO) == pytest.approx(CHICAGO.distance_km(MSP))


def test_latitude_bounds_validated():
    with pytest.raises(ValueError):
        GeoPoint(91.0, 0.0)
    with pytest.raises(ValueError):
        GeoPoint(-90.5, 0.0)


def test_longitude_bounds_validated():
    with pytest.raises(ValueError):
        GeoPoint(0.0, 181.0)
    with pytest.raises(ValueError):
        GeoPoint(0.0, -180.5)


def test_boundary_coordinates_accepted():
    GeoPoint(90.0, 180.0)
    GeoPoint(-90.0, -180.0)


def test_points_are_hashable_and_equal_by_value():
    assert GeoPoint(1.0, 2.0) == GeoPoint(1.0, 2.0)
    assert hash(GeoPoint(1.0, 2.0)) == hash(GeoPoint(1.0, 2.0))
    assert len({GeoPoint(1.0, 2.0), GeoPoint(1.0, 2.0)}) == 1


def test_offset_km_roundtrip_distance():
    moved = MSP.offset_km(north_km=3.0, east_km=4.0)
    assert MSP.distance_km(moved) == pytest.approx(5.0, rel=0.02)


def test_offset_north_increases_latitude():
    moved = MSP.offset_km(north_km=10.0, east_km=0.0)
    assert moved.lat > MSP.lat
    assert moved.lon == pytest.approx(MSP.lon)


def test_offset_at_pole_raises():
    pole = GeoPoint(90.0, 0.0)
    with pytest.raises(ValueError):
        pole.offset_km(0.0, 1.0)


@given(
    st.floats(min_value=-80, max_value=80),
    st.floats(min_value=-179, max_value=179),
    st.floats(min_value=-80, max_value=80),
    st.floats(min_value=-179, max_value=179),
)
def test_property_distance_nonnegative_and_symmetric(lat1, lon1, lat2, lon2):
    a, b = GeoPoint(lat1, lon1), GeoPoint(lat2, lon2)
    d = haversine_km(a, b)
    assert d >= 0.0
    assert d == pytest.approx(haversine_km(b, a))
    # No two Earth points are farther than half the circumference.
    assert d <= 20_038.0


@given(
    st.floats(min_value=-70, max_value=70),
    st.floats(min_value=-179, max_value=179),
    st.floats(min_value=-20, max_value=20),
    st.floats(min_value=-20, max_value=20),
)
def test_property_offset_distance_matches_euclidean(lat, lon, north, east):
    origin = GeoPoint(lat, lon)
    moved = origin.offset_km(north, east)
    expected = (north**2 + east**2) ** 0.5
    assert origin.distance_km(moved) == pytest.approx(expected, rel=0.05, abs=0.05)
