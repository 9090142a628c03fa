"""Unit and property tests for the GeoHash implementation."""

import pytest
from hypothesis import given, strategies as st

from repro.geo import geohash as gh
from repro.geo.point import GeoPoint

coords = st.tuples(
    st.floats(min_value=-89.9, max_value=89.9),
    st.floats(min_value=-179.9, max_value=179.9),
)


# ----------------------------------------------------------------------
# Known vectors (from the original geohash.org reference)
# ----------------------------------------------------------------------
def test_known_vector_ezs42():
    assert gh.encode(42.605, -5.603, 5) == "ezs42"


def test_known_vector_u4pruydqqvj():
    assert gh.encode(57.64911, 10.40744, 11) == "u4pruydqqvj"


def test_known_vector_9q8yy():
    # San Francisco area
    assert gh.encode(37.7749, -122.4194, 5) == "9q8yy"


def test_minneapolis_prefix_is_stable():
    msp = gh.encode(44.9778, -93.2650, 9)
    assert msp.startswith("9zvx")


# ----------------------------------------------------------------------
# Encode / decode
# ----------------------------------------------------------------------
def test_encode_validates_inputs():
    with pytest.raises(ValueError):
        gh.encode(91.0, 0.0)
    with pytest.raises(ValueError):
        gh.encode(0.0, 181.0)
    with pytest.raises(ValueError):
        gh.encode(0.0, 0.0, precision=0)


def test_decode_rejects_garbage():
    with pytest.raises(ValueError):
        gh.decode("")
    with pytest.raises(ValueError):
        gh.decode("abci")  # 'i' is not in the alphabet


def test_decode_is_case_insensitive():
    assert gh.decode("EZS42") == gh.decode("ezs42")


def test_bounding_box_contains_decoded_center():
    box = gh.bounding_box("ezs42")
    center = gh.decode("ezs42")
    lat_lo, lat_hi, lon_lo, lon_hi = box
    assert lat_lo <= center.lat <= lat_hi
    assert lon_lo <= center.lon <= lon_hi


@given(coords, st.integers(min_value=1, max_value=12))
def test_property_roundtrip_stays_in_cell(coord, precision):
    lat, lon = coord
    code = gh.encode(lat, lon, precision)
    assert len(code) == precision
    lat_lo, lat_hi, lon_lo, lon_hi = gh.bounding_box(code)
    assert lat_lo - 1e-9 <= lat <= lat_hi + 1e-9
    assert lon_lo - 1e-9 <= lon <= lon_hi + 1e-9


@given(coords, st.integers(min_value=2, max_value=12))
def test_property_prefix_containment(coord, precision):
    lat, lon = coord
    code = gh.encode(lat, lon, precision)
    shorter = gh.encode(lat, lon, precision - 1)
    assert code.startswith(shorter)


@given(coords)
def test_property_reencoding_center_reproduces_hash(coord):
    lat, lon = coord
    code = gh.encode(lat, lon, 8)
    center = gh.decode(code)
    assert gh.encode(center.lat, center.lon, 8) == code


# ----------------------------------------------------------------------
# Adjacency / neighbors
# ----------------------------------------------------------------------
def test_adjacent_east_west_are_inverse():
    code = "ezs42"
    assert gh.adjacent(gh.adjacent(code, "e"), "w") == code


def test_adjacent_north_south_are_inverse():
    code = "9zvxg"
    assert gh.adjacent(gh.adjacent(code, "n"), "s") == code


def test_adjacent_validates_direction():
    with pytest.raises(ValueError):
        gh.adjacent("ezs42", "x")
    with pytest.raises(ValueError):
        gh.adjacent("", "n")


def test_neighbors_returns_8_unique_cells():
    cells = gh.neighbors("9zvxg")
    assert len(cells) == 8
    assert len(set(cells)) == 8
    assert "9zvxg" not in cells


def test_neighbors_are_geographically_close():
    code = gh.encode(44.9778, -93.2650, 6)
    center = gh.decode(code)
    lat_lo, lat_hi, lon_lo, lon_hi = gh.bounding_box(code)
    diagonal_km = GeoPoint(lat_lo, lon_lo).distance_km(GeoPoint(lat_hi, lon_hi))
    for neighbor in gh.neighbors(code):
        distance = center.distance_km(gh.decode(neighbor))
        assert distance <= diagonal_km * 1.001


@given(coords, st.integers(min_value=3, max_value=8))
def test_property_neighbors_inverse_moves(coord, precision):
    lat, lon = coord
    code = gh.encode(lat, lon, precision)
    assert gh.adjacent(gh.adjacent(code, "n"), "s") == code
    assert gh.adjacent(gh.adjacent(code, "e"), "w") == code


# ----------------------------------------------------------------------
# Radius coverage
# ----------------------------------------------------------------------
def test_precision_for_radius_monotone():
    precisions = [gh.precision_for_radius_km(r) for r in (0.01, 1, 10, 100, 1000)]
    assert precisions == sorted(precisions, reverse=True)


def test_precision_for_radius_rejects_nonpositive():
    with pytest.raises(ValueError):
        gh.precision_for_radius_km(0.0)


def test_covering_cells_cover_points_within_radius():
    center = GeoPoint(44.9778, -93.2650)
    radius = 40.0
    cells = gh.covering_cells(center, radius)
    precision = len(cells[0])
    # points on the radius circle must land in one of the covering cells
    for bearing_deg in range(0, 360, 45):
        import math

        rad = math.radians(bearing_deg)
        point = center.offset_km(radius * 0.99 * math.cos(rad), radius * 0.99 * math.sin(rad))
        assert gh.encode(point.lat, point.lon, precision) in cells


def _destination(lat, lon, distance_km, bearing):
    """Point ``distance_km`` from (lat, lon) along ``bearing`` (great circle)."""
    import math

    from repro.geo.point import EARTH_RADIUS_KM

    phi, lam, arc = math.radians(lat), math.radians(lon), distance_km / EARTH_RADIUS_KM
    sin_phi2 = math.sin(phi) * math.cos(arc) + math.cos(phi) * math.sin(arc) * math.cos(bearing)
    phi2 = math.asin(max(-1.0, min(1.0, sin_phi2)))
    lam2 = lam + math.atan2(
        math.sin(bearing) * math.sin(arc) * math.cos(phi),
        math.cos(arc) - math.sin(phi) * math.sin(phi2),
    )
    return math.degrees(phi2), (math.degrees(lam2) + 540.0) % 360.0 - 180.0


@given(
    st.floats(min_value=-90.0, max_value=90.0),
    st.one_of(
        st.floats(min_value=-180.0, max_value=180.0),
        st.sampled_from([180.0, -180.0, 179.9999, -179.9999]),
    ),
    st.sampled_from([0.05, 0.5, 0.61, 4.0, 4.9, 8.0, 19.5, 80.0, 156.4, 400.0, 2500.0]),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=6.283185307179586),
)
def test_property_covering_cells_contain_every_point_within_radius(
    lat, lon, radius_km, fraction, bearing
):
    """The docstring's promise, everywhere: mid latitudes (where cells
    are narrower than the radius-to-precision table assumes — the 3x3
    block used to miss ~1% of in-radius points at 45 degrees north / 4 km),
    the antimeridian and both poles."""
    from hypothesis import assume

    from repro.geo.point import haversine_km_coords

    cells = gh.covering_cells(GeoPoint(lat, lon), radius_km)
    precision = len(cells[0])
    assert cells[0] == gh.encode(lat, lon, precision)
    assert {len(cell) for cell in cells} == {precision}
    assert len(set(cells)) == len(cells) <= 3 * 16
    # Mostly points near the rim: that is where a short cover shows.
    distance = radius_km * (1.0 - 0.05 * fraction * fraction)
    plat, plon = _destination(lat, lon, distance, bearing)
    assume(haversine_km_coords(lat, lon, plat, plon) <= radius_km)
    assert gh.encode(plat, plon, precision) in cells


def test_covering_cells_regression_45_north_4km():
    """The measured miss: a user just inside its cell's east edge at
    45 N, where precision-5 cells are 3.46 km wide — a node 3.5-4 km to
    the east lies two columns over, outside the old 3x3 block."""
    from repro.geo.point import haversine_km_coords

    _, _, _, lon_hi = gh.bounding_box(gh.encode(44.9778, -93.2650, 5))
    user = GeoPoint(44.9778, lon_hi - 1e-4)
    cells = gh.covering_cells(user, 4.0)
    assert len(cells[0]) == 5
    for i in range(400):
        plat, plon = _destination(user.lat, user.lon, 3.999, i * 0.0157)
        assert haversine_km_coords(user.lat, user.lon, plat, plon) <= 4.0
        assert gh.encode(plat, plon, 5) in cells
    beyond_the_old_block = gh.adjacent(gh.adjacent(cells[0], "e"), "e")
    assert beyond_the_old_block in cells


def test_covering_cells_keep_precision_below_80_degrees():
    # The fix is more columns, not coarser cells (~30x the candidates).
    for lat in (0.0, 30.0, 45.0, 60.0, 75.0, -75.0):
        for radius_km in (0.5, 4.0, 8.0, 80.0, 400.0):
            cells = gh.covering_cells(GeoPoint(lat, 10.0), radius_km)
            assert len(cells[0]) == gh.precision_for_radius_km(radius_km)


# ----------------------------------------------------------------------
# Vectorized integer cells (the metro kernel's fast path)
# ----------------------------------------------------------------------
@given(
    st.floats(min_value=-89.9, max_value=89.9),
    st.floats(min_value=-179.9, max_value=179.9),
    st.integers(min_value=1, max_value=12),
)
def test_encode_cells_matches_scalar_encode(lat, lon, precision):
    import numpy as np

    cells = gh.encode_cells(
        np.array([lat]), np.array([lon]), precision
    )
    assert gh.cell_to_geohash(int(cells[0]), precision) == gh.encode(
        lat, lon, precision
    )


def test_cell_string_round_trip():
    for s in ["9", "9z", "9zvxg", "cbj0u3h1", "000000000000"]:
        assert gh.cell_to_geohash(gh.geohash_to_cell(s), len(s)) == s


@given(
    st.integers(min_value=1, max_value=12),
    st.lists(
        st.tuples(
            st.floats(min_value=-90.0, max_value=90.0),
            st.floats(min_value=-180.0, max_value=180.0),
        ),
        min_size=1,
        max_size=40,
    ),
)
def test_interleave_split_round_trip_and_match_string_bits(precision, coords):
    """The mask-and-shift spread/squeeze against the string API: the two
    axes are the geohash's bit string de-interleaved by hand (longitude
    first), and interleaving them again gives the cell back."""
    import numpy as np

    lats, lons = (np.array(axis) for axis in zip(*coords))
    cells = gh.encode_cells(lats, lons, precision)
    lat_q, lon_q = gh.split_cells(cells, precision)
    assert lat_q.dtype == lon_q.dtype == np.uint64
    assert np.array_equal(gh.interleave_cells(lat_q, lon_q, precision), cells)
    for i, (lat, lon) in enumerate(coords):
        bits = format(gh.geohash_to_cell(gh.encode(lat, lon, precision)),
                      f"0{5 * precision}b")
        assert int(lon_q[i]) == int(bits[0::2], 2)
        assert int(lat_q[i]) == int(bits[1::2], 2)
        # One-element arrays take the same path as the batch.
        assert gh.split_cells(cells[i : i + 1], precision)[1][0] == lon_q[i]


def test_interleave_ignores_bits_beyond_the_axis_width():
    """Only an axis's own bits reach the cell, as with the per-bit loop."""
    import numpy as np

    for precision in range(1, 13):
        total = 5 * precision
        lon_bits = (total + 1) // 2
        full = np.array([2**63 + 2**40 + 5], dtype=np.uint64)
        cell = gh.interleave_cells(full, full, precision)
        assert int(cell[0]) < 2**total
        lat_q, lon_q = gh.split_cells(cell | np.uint64(2**62), precision)
        assert int(lon_q[0]) == int(full[0]) % 2**lon_bits
        assert int(lat_q[0]) == int(full[0]) % 2 ** (total - lon_bits)


@given(
    st.floats(min_value=-80.0, max_value=80.0),
    st.floats(min_value=-179.9, max_value=179.9),
    st.integers(min_value=2, max_value=12),
)
def test_cell_neighborhood_matches_string_neighbors(lat, lon, precision):
    import numpy as np

    cell = gh.encode_cells(np.array([lat]), np.array([lon]), precision)
    block = gh.cell_neighborhood(cell, precision)
    got = {gh.cell_to_geohash(int(c), precision) for c in block[0]}
    want = set(gh.neighbors(gh.encode(lat, lon, precision)))
    want.add(gh.encode(lat, lon, precision))
    assert got == want


def test_cell_neighborhood_wraps_longitude():
    import numpy as np

    cell = gh.encode_cells(np.array([0.0]), np.array([179.99]), 4)
    block = gh.cell_neighborhood(cell, 4)
    strings = {gh.cell_to_geohash(int(c), 4) for c in block[0]}
    # The antimeridian neighborhood spans both hemispheres.
    assert any(s.startswith("x") or s.startswith("r") for s in strings)
    assert any(s.startswith("8") or s.startswith("2") for s in strings)
