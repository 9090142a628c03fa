"""The cell arithmetic against the algorithms it replaced.

:mod:`repro.geo.geohash` quantises by a corrected floor and builds the
cover as an integer block. The specification's midpoint bisection and
the walk over :func:`~repro.geo.geohash.adjacent` live here, as the
references: the arithmetic has to name *the same cell* at every edge of
every cell, and the cover has to be the same cells in the same order.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geo import geohash as gh
from repro.geo.point import EARTH_RADIUS_KM, GeoPoint


# ----------------------------------------------------------------------
# References
# ----------------------------------------------------------------------
def bisect_encode(lat, lon, precision):
    """Geohash by midpoint bisection, plus the cell it narrowed down to:
    ``(geohash, lat_lo, lat_hi, lon_lo, lon_hi)``."""
    lat_lo, lat_hi = -90.0, 90.0
    lon_lo, lon_hi = -180.0, 180.0
    chars = []
    bits = value = 0
    even_bit = True  # even bit positions refine longitude
    while len(chars) < precision:
        if even_bit:
            mid = (lon_lo + lon_hi) / 2.0
            if lon >= mid:
                value = (value << 1) | 1
                lon_lo = mid
            else:
                value <<= 1
                lon_hi = mid
        else:
            mid = (lat_lo + lat_hi) / 2.0
            if lat >= mid:
                value = (value << 1) | 1
                lat_lo = mid
            else:
                value <<= 1
                lat_hi = mid
        even_bit = not even_bit
        bits += 1
        if bits == 5:
            chars.append(gh.GEOHASH_ALPHABET[value])
            bits = value = 0
    return "".join(chars), lat_lo, lat_hi, lon_lo, lon_hi


def bisect_axis(values, lo, hi, bits):
    """One axis of :func:`bisect_encode` over an array."""
    q = np.zeros(values.shape, dtype=np.uint64)
    lo_arr = np.full(values.shape, lo, dtype=np.float64)
    hi_arr = np.full(values.shape, hi, dtype=np.float64)
    for _ in range(bits):
        mid = (lo_arr + hi_arr) / 2.0
        ge = values >= mid
        q = (q << np.uint64(1)) | ge.astype(np.uint64)
        lo_arr = np.where(ge, mid, lo_arr)
        hi_arr = np.where(ge, hi_arr, mid)
    return q


def walked_cover(point, radius_km):
    """The bounding-box cover found by counting cell edges outwards from
    the bisected centre cell and walking ``adjacent``."""
    precision = gh.precision_for_radius_km(radius_km)
    lat, lon = point.lat, point.lon
    angle = radius_km / EARTH_RADIUS_KM * gh._COVER_PAD
    dlat = math.degrees(angle)
    lat_min, lat_max = lat - dlat, lat + dlat
    dlon = 180.0
    if -90.0 < lat_min and lat_max < 90.0:
        reach = math.sin(angle) / math.cos(math.radians(lat))
        if reach < 1.0:
            dlon = math.degrees(math.asin(reach)) * gh._COVER_PAD
    columns = 1 << gh._bit_split(precision)[1]
    while precision > 1 and 2.0 * dlon * columns / 360.0 + 2.0 > gh._MAX_COVER_COLUMNS:
        precision -= 1
        columns = 1 << gh._bit_split(precision)[1]

    centre, lat_lo, lat_hi, lon_lo, lon_hi = bisect_encode(lat, lon, precision)
    height, width = lat_hi - lat_lo, lon_hi - lon_lo
    north = south = east = west = 0
    edge = lat_hi
    while edge <= lat_max and edge < 90.0:
        north += 1
        edge += height
    edge = lat_lo
    while edge > lat_min and edge > -90.0:
        south += 1
        edge -= height
    edge = lon_hi
    while edge <= lon + dlon:
        east += 1
        edge += width
    edge = lon_lo
    while edge > lon - dlon:
        west += 1
        edge -= width
    if 1 + east + west >= columns:  # the whole parallel
        east, west = columns - 1, 0

    row = [centre]
    for direction, steps in (("e", east), ("w", west)):
        cell = centre
        for _ in range(steps):
            cell = gh.adjacent(cell, direction)
            row.append(cell)
    cells = list(row)
    for direction, steps in (("n", north), ("s", south)):
        layer = row
        for _ in range(steps):
            layer = [gh.adjacent(cell, direction) for cell in layer]
            cells.extend(layer)
    return cells


# ----------------------------------------------------------------------
# The quantiser is the bisection
# ----------------------------------------------------------------------
TINY = 5e-324


def _around(values):
    """Each value with its two float neighbours."""
    out = []
    for value in values:
        out += [math.nextafter(value, -math.inf), value, math.nextafter(value, math.inf)]
    return out


def _axis_samples(lo, hi, bits, rng):
    """Coordinates where a quantiser can go wrong on one axis: the axis
    ends, zero from both sides, and cell edges — every edge while there
    are few, else the first, the last, those around zero and a seeded
    sample — each with its float neighbours."""
    cells = 1 << bits
    size = (hi - lo) / cells
    if cells <= 64:
        edges = range(cells + 1)
    else:
        edges = sorted(
            {0, 1, 2, cells // 2 - 1, cells // 2, cells // 2 + 1, cells - 2, cells - 1, cells}
            | {rng.randrange(cells) for _ in range(40)}
        )
    values = _around([lo + edge * size for edge in edges])
    values += [0.0, -0.0, TINY, -TINY, lo, hi]
    return [v for v in values if lo <= v <= hi]


@pytest.mark.parametrize("precision", range(1, 13))
def test_encode_and_encode_cells_are_the_bisection_at_every_kind_of_edge(precision):
    import random

    rng = random.Random(precision)
    total, lon_bits = gh._bit_split(precision)
    lats = _axis_samples(-90.0, 90.0, total - lon_bits, rng)
    lons = _axis_samples(-180.0, 180.0, lon_bits, rng)
    # Every latitude meets every longitude kind at least once.
    pairs = [(lat, lons[i % len(lons)]) for i, lat in enumerate(lats)]
    pairs += [(lats[i % len(lats)], lon) for i, lon in enumerate(lons)]
    want = [bisect_encode(lat, lon, precision)[0] for lat, lon in pairs]
    assert [gh.encode(lat, lon, precision) for lat, lon in pairs] == want
    lat_arr, lon_arr = (np.array(axis) for axis in zip(*pairs))
    cells = gh.encode_cells(lat_arr, lon_arr, precision)
    assert [gh.cell_to_geohash(int(c), precision) for c in cells] == want


@pytest.mark.parametrize("precision", (1, 5, 6, 9, 12))
def test_axis_quantiser_is_the_axis_bisection_on_a_dense_sweep(precision):
    """Whole arrays at once, including what ``encode`` refuses: values
    beyond the axis, infinities and NaN land where the bisection's
    comparisons leave them."""
    rng = np.random.default_rng(precision)
    total, lon_bits = gh._bit_split(precision)
    for lo, span, bits in ((-90.0, 180.0, total - lon_bits), (-180.0, 360.0, lon_bits)):
        size = span / (1 << bits)
        edges = lo + rng.integers(0, (1 << bits) + 1, 20_000) * size
        values = np.concatenate(
            [
                rng.uniform(lo, lo + span, 20_000),
                edges,
                np.nextafter(edges, -np.inf),
                np.nextafter(edges, np.inf),
                [lo - 1.0, lo + span + 1.0, np.inf, -np.inf, np.nan, 0.0, -0.0, TINY, -TINY],
            ]
        )
        assert np.array_equal(
            gh._quantise_axis(np, values, lo, size, bits),
            bisect_axis(values, lo, lo + span, bits),
        )


@given(
    st.floats(min_value=-90.0, max_value=90.0),
    st.floats(min_value=-180.0, max_value=180.0),
    st.integers(min_value=1, max_value=12),
)
def test_property_encode_is_the_bisection(lat, lon, precision):
    assert gh.encode(lat, lon, precision) == bisect_encode(lat, lon, precision)[0]


def test_encode_refuses_what_has_no_cell():
    for lat, lon in ((math.nan, 0.0), (0.0, math.nan), (90.0001, 0.0), (0.0, -180.0001)):
        with pytest.raises(ValueError):
            gh.encode(lat, lon, 6)
        with pytest.raises(ValueError):
            gh.cover(lat, lon, 4.0)
    for precision in (0, 13):
        with pytest.raises(ValueError):
            gh.encode(0.0, 0.0, precision)
    for radius_km in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            gh.cover(0.0, 0.0, radius_km)


# ----------------------------------------------------------------------
# The cover is the walk
# ----------------------------------------------------------------------
RADII = [0.05, 0.5, 0.61, 4.0, 4.9, 8.0, 19.5, 80.0, 156.4, 400.0, 2500.0]


def _assert_cover_is_the_walk(lat, lon, radius_km):
    precision, cells = gh.cover(lat, lon, radius_km)
    rendered = [gh.cell_to_geohash(cell, precision) for cell in cells]
    assert rendered == walked_cover(GeoPoint(lat, lon), radius_km)
    assert rendered == gh.covering_cells(GeoPoint(lat, lon), radius_km)


@settings(max_examples=300)
@given(
    st.floats(min_value=-90.0, max_value=90.0),
    st.one_of(
        st.floats(min_value=-180.0, max_value=180.0),
        st.sampled_from([180.0, -180.0, 179.9999, -179.9999, 0.0, -0.0]),
    ),
    st.sampled_from(RADII),
)
def test_property_cover_is_the_adjacent_walk_in_order(lat, lon, radius_km):
    _assert_cover_is_the_walk(lat, lon, radius_km)


@pytest.mark.parametrize("radius_km", RADII)
def test_cover_is_the_walk_pole_to_pole_and_on_cell_edges(radius_km):
    """A meridian sweep through both poles at the antimeridian and at
    Greenwich, then centres sitting exactly on (and one float either
    side of) the edges of their own cell."""
    for lon in (180.0, -180.0, 179.99999, 0.0, -93.265):
        for step in range(-90, 91, 3):
            _assert_cover_is_the_walk(float(step), lon, radius_km)
    precision = gh.precision_for_radius_km(radius_km)
    for lat, lon in ((44.9778, -93.2650), (-33.9, 151.2), (0.0, 0.0), (79.5, 179.9)):
        _, lat_lo, lat_hi, lon_lo, lon_hi = bisect_encode(lat, lon, precision)
        for edge_lat in _around([lat_lo, lat_hi]):
            for edge_lon in _around([lon_lo, lon_hi]):
                if -90.0 <= edge_lat <= 90.0 and -180.0 <= edge_lon <= 180.0:
                    _assert_cover_is_the_walk(edge_lat, edge_lon, radius_km)


def test_cover_survives_a_radius_larger_than_the_planet():
    precision, cells = gh.cover(10.0, 20.0, math.inf)
    assert precision == 1 and sorted(cells) == list(range(32))
