"""A complete GeoHash implementation.

GeoHash (Niemeyer, 2008; see paper reference [32]) interleaves the bits of
a binary-search refinement of longitude and latitude and encodes them in a
base-32 alphabet. Two properties make it useful for edge discovery:

1. **Prefix containment** — every cell with hash prefix ``p`` lies inside
   the cell named ``p``; truncating a hash widens the search area.
2. **Locality (mostly)** — nearby points usually share long prefixes.
   The exception is cell-boundary effects, which is why proximity search
   must also include the cells around the query cell
   (:func:`covering_cells`); the Central Manager does exactly that.

Implemented from the specification (encode, decode with error bounds,
bounding box, adjacency in all 4 directions, 8-neighborhood, and a helper
mapping a search radius to the coarsest adequate precision).

**Cells by arithmetic.** A geohash of ``p`` characters is ``5p``
interleaved bits of two quantised axes, so a cell is a pair of integers
``(lat_q, lon_q)`` and everything the query path needs is arithmetic on
them: :func:`encode`, :func:`encode_cells` and :func:`cover` share one
exact quantiser (:func:`_quantise`) — a floor estimate corrected against
the cell's own edges, which are exact binary fractions at every
precision up to 12, so the result *is* the cell the specification's
bisection reaches — and the cover of a disc is the block of cells
``(lat_q + i, (lon_q + j) mod columns)``, as integer cell ids.
The base-32 strings are a rendering (:func:`cell_to_geohash`,
:func:`covering_cells`); the bisection and the :func:`adjacent` walk
survive in ``tests/test_geohash_arithmetic.py`` as the references the
arithmetic is held to.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, List, Tuple

from repro.geo.point import EARTH_RADIUS_KM, GeoPoint

GEOHASH_ALPHABET = "0123456789bcdefghjkmnpqrstuvwxyz"
_CHAR_TO_VALUE: Dict[str, int] = {c: i for i, c in enumerate(GEOHASH_ALPHABET)}

# Adjacency tables from the reference GeoHash implementation.
# Keyed by direction and by parity of the hash length ("even"/"odd").
_NEIGHBOR_TABLE: Dict[str, Dict[str, str]] = {
    "n": {
        "even": "p0r21436x8zb9dcf5h7kjnmqesgutwvy",
        "odd": "bc01fg45238967deuvhjyznpkmstqrwx",
    },
    "s": {
        "even": "14365h7k9dcfesgujnmqp0r2twvyx8zb",
        "odd": "238967debc01fg45kmstqrwxuvhjyznp",
    },
    "e": {
        "even": "bc01fg45238967deuvhjyznpkmstqrwx",
        "odd": "p0r21436x8zb9dcf5h7kjnmqesgutwvy",
    },
    "w": {
        "even": "238967debc01fg45kmstqrwxuvhjyznp",
        "odd": "14365h7k9dcfesgujnmqp0r2twvyx8zb",
    },
}
_BORDER_TABLE: Dict[str, Dict[str, str]] = {
    "n": {"even": "prxz", "odd": "bcfguvyz"},
    "s": {"even": "028b", "odd": "0145hjnp"},
    "e": {"even": "bcfguvyz", "odd": "prxz"},
    "w": {"even": "0145hjnp", "odd": "028b"},
}


def encode(lat: float, lon: float, precision: int = 9) -> str:
    """Encode a latitude/longitude to a geohash of ``precision`` characters.

    Raises:
        ValueError: for out-of-range (or NaN) coordinates, or a precision
            outside 1..12.
    """
    _bit_split(precision)  # validates
    lat_part, lon_part = _axis_parts(*_quantise_point(lat, lon, precision), precision)
    return cell_to_geohash(lat_part | lon_part, precision)


def _quantise(x: float, lo: float, size: float) -> int:
    """Index ``q`` of the cell ``[lo + q*size, lo + (q+1)*size)`` holding ``x``.

    The floor estimate is off by at most one (its subtraction and
    division round, by far less than a cell), and one comparison against
    the cell's own edges settles it. For ``size = span / 2**bits`` with
    ``bits <= 30`` the edges ``lo + q*size`` are multiples of ``2**-28``
    smaller than ``2**10`` — exact in float64 — so the answer is
    the cell whose edges bracket ``x``, the one midpoint bisection
    narrows down to. The grid is unbounded: ``x`` beyond the axis gets
    the index it would have if the cells went on (the cover's
    ``lon +- dlon``), and callers clamp where the axis ends.
    """
    q = math.floor((x - lo) / size)
    if x < lo + q * size:
        return q - 1
    if x >= lo + (q + 1) * size:
        return q + 1
    return q


def _quantise_point(lat: float, lon: float, precision: int) -> Tuple[int, int]:
    """``(lat_q, lon_q)`` of a validated point; +90 / +180 belong to the
    last cell, as in the bisection (every comparison says "upper half")."""
    if not -90.0 <= lat <= 90.0:
        raise ValueError(f"latitude out of range: {lat}")
    if not -180.0 <= lon <= 180.0:
        raise ValueError(f"longitude out of range: {lon}")
    lat_bits, lon_bits, height, width, _, _, _ = _GRID[precision]
    return (
        min(_quantise(lat, -90.0, height), (1 << lat_bits) - 1),
        min(_quantise(lon, -180.0, width), (1 << lon_bits) - 1),
    )


#: ``_SPREAD_BYTE[b]``: the bits of byte ``b`` moved to the even positions.
_SPREAD_BYTE: Tuple[int, ...] = tuple(
    sum(((b >> j) & 1) << (2 * j) for j in range(8)) for b in range(256)
)


def _spread(q: int) -> int:
    """Move bit ``j`` of ``q`` (< 2**32) to bit ``2j``, a byte per lookup."""
    table = _SPREAD_BYTE
    return (
        table[q & 255]
        | table[(q >> 8) & 255] << 16
        | table[(q >> 16) & 255] << 32
        | table[q >> 24] << 48
    )


def _bit_split(precision: int) -> Tuple[int, int]:
    """(total_bits, lon_bits) of a cell at ``precision``; lat gets the rest.

    Geohash interleaving starts with a longitude bit, so longitude owns
    the extra bit at odd precisions.
    """
    if not 1 <= precision <= 12:
        raise ValueError(f"precision must be in 1..12, got {precision}")
    total = 5 * precision
    return total, (total + 1) // 2


def _grid_row(precision: int) -> Tuple[int, int, float, float, int, int, int]:
    total, lon_bits = _bit_split(precision)
    lat_bits = total - lon_bits
    # Whichever axis owns the *last* bit sits on the even positions:
    # longitude when it has the extra one, pushing latitude up by one.
    lat_shift = lon_bits - lat_bits
    return (
        lat_bits,
        lon_bits,
        180.0 / (1 << lat_bits),
        360.0 / (1 << lon_bits),
        lat_shift,
        _spread((1 << lat_bits) - 1) << lat_shift,
        _spread((1 << lon_bits) - 1) << (1 - lat_shift),
    )


#: precision -> (lat_bits, lon_bits, cell height, cell width in degrees,
#: latitude's shift in a cell id, latitude's bit positions, longitude's).
#: Both sizes are ``45 * 2**k``: exact.
_GRID: Dict[int, Tuple[int, int, float, float, int, int, int]] = {
    precision: _grid_row(precision) for precision in range(1, 13)
}


def _axis_parts(lat_q: int, lon_q: int, precision: int) -> Tuple[int, int]:
    """Each axis's bits at their positions in a cell id (OR them for the cell)."""
    lat_shift = _GRID[precision][4]
    return _spread(lat_q) << lat_shift, _spread(lon_q) << (1 - lat_shift)


def encode_point(point: GeoPoint, precision: int = 9) -> str:
    """Encode a :class:`GeoPoint`."""
    return encode(point.lat, point.lon, precision)


def bounding_box(geohash: str) -> Tuple[float, float, float, float]:
    """Return ``(lat_lo, lat_hi, lon_lo, lon_hi)`` of the cell.

    Raises:
        ValueError: for an empty hash or invalid characters.
    """
    if not geohash:
        raise ValueError("geohash must be non-empty")
    lat_lo, lat_hi = -90.0, 90.0
    lon_lo, lon_hi = -180.0, 180.0
    even_bit = True
    for char in geohash.lower():
        try:
            value = _CHAR_TO_VALUE[char]
        except KeyError:
            raise ValueError(f"invalid geohash character: {char!r}") from None
        for shift in range(4, -1, -1):
            bit = (value >> shift) & 1
            if even_bit:
                mid = (lon_lo + lon_hi) / 2.0
                if bit:
                    lon_lo = mid
                else:
                    lon_hi = mid
            else:
                mid = (lat_lo + lat_hi) / 2.0
                if bit:
                    lat_lo = mid
                else:
                    lat_hi = mid
            even_bit = not even_bit
    return lat_lo, lat_hi, lon_lo, lon_hi


def decode(geohash: str) -> GeoPoint:
    """Decode a geohash to the centre point of its cell."""
    lat_lo, lat_hi, lon_lo, lon_hi = bounding_box(geohash)
    return GeoPoint((lat_lo + lat_hi) / 2.0, (lon_lo + lon_hi) / 2.0)


def adjacent(geohash: str, direction: str) -> str:
    """Return the geohash of the adjacent cell in ``direction``.

    Args:
        geohash: cell to move from.
        direction: one of ``"n"``, ``"s"``, ``"e"``, ``"w"``.

    Raises:
        ValueError: on bad direction or empty hash (the poles have no
            northern/southern neighbor at precision 1 in some cases; the
            reference algorithm wraps, which we keep).
    """
    geohash = geohash.lower()
    if direction not in ("n", "s", "e", "w"):
        raise ValueError(f"direction must be n/s/e/w, got {direction!r}")
    if not geohash:
        raise ValueError("geohash must be non-empty")

    last = geohash[-1]
    parent = geohash[:-1]
    parity = "even" if len(geohash) % 2 == 0 else "odd"

    if last in _BORDER_TABLE[direction][parity] and parent:
        parent = adjacent(parent, direction)
    index = _NEIGHBOR_TABLE[direction][parity].index(last)
    return parent + GEOHASH_ALPHABET[index]


def neighbors(geohash: str) -> List[str]:
    """The 8 surrounding cells, clockwise from north.

    Together with the cell itself these cover every point within one cell
    width (see :func:`covering_cells` for the cells covering a radius).
    """
    n = adjacent(geohash, "n")
    s = adjacent(geohash, "s")
    return [
        n,
        adjacent(n, "e"),
        adjacent(geohash, "e"),
        adjacent(s, "e"),
        s,
        adjacent(s, "w"),
        adjacent(geohash, "w"),
        adjacent(n, "w"),
    ]


#: Approximate cell dimensions (km) per precision, at the equator:
#: (height, width). Width shrinks with cos(latitude), so these are the
#: *largest* a cell gets: away from the equator a cell picked by
#: :func:`precision_for_radius_km` can be narrower than the radius, which
#: is why :func:`covering_cells` counts columns from the disc's bounding
#: box instead of assuming one neighbor each side is enough.
_CELL_KM: Dict[int, Tuple[float, float]] = {
    1: (5003.7, 5003.7),
    2: (1251.0, 625.5),
    3: (156.4, 156.4),
    4: (39.1, 19.5),
    5: (4.9, 4.9),
    6: (1.22, 0.61),
    7: (0.153, 0.153),
    8: (0.038, 0.019),
    9: (0.0048, 0.0048),
    10: (0.0012, 0.0006),
    11: (0.000149, 0.000149),
    12: (0.000037, 0.0000186),
}


@lru_cache(maxsize=256)
def precision_for_radius_km(radius_km: float) -> int:
    """Coarsest precision whose cell still covers ``radius_km``.

    Used by the geo-proximity filter to pick the cell size of
    :func:`covering_cells`. Memoised: a deployment queries with a
    handful of radii (the filter's local and wide one), millions of
    times.
    """
    if not radius_km > 0:  # NaN too
        raise ValueError(f"radius must be positive, got {radius_km}")
    for precision in range(12, 0, -1):
        height, width = _CELL_KM[precision]
        if min(height, width) >= radius_km:
            return precision
    return 1


#: Above ~80 degrees of latitude a disc spans more and more (ever
#: narrower) columns, all of them once it contains a pole. Past this many
#: columns :func:`covering_cells` steps to coarser cells instead.
_MAX_COVER_COLUMNS = 16
#: Relative padding of the disc's bounding box: absorbs the rounding of
#: the box arithmetic and of the haversine cut the cells are a prefilter
#: for (both ~1e-15).
_COVER_PAD = 1.0 + 1e-9


@lru_cache(maxsize=4096)
def cover(lat: float, lon: float, radius_km: float) -> Tuple[int, Tuple[int, ...]]:
    """``(precision, cell ids)`` of the cells covering a disc, centre first
    (memoised: users re-discover from where they stand, and the router's
    plan and the index's cut of one query share the evaluation).

    Every point within ``radius_km`` (haversine) of ``(lat, lon)`` lies
    in one of the returned same-precision cells. They are the cells that
    intersect the disc's latitude/longitude bounding box — ``lat ± r/R``
    and ``lon ± asin(sin(r/R) / cos(lat))``, every longitude once the
    disc touches a pole. The box corners go through the same quantiser
    as the centre, which makes the block ``(lat_q + i, (lon_q + j) mod
    columns)``: rows stop at the poles, columns wrap at the antimeridian.
    The precision is :func:`precision_for_radius_km`'s, so near the
    equator this is the familiar 3x3 block or less; cells narrow with
    cos(latitude), so at mid latitudes a row can need a fourth column.
    Only where a row would exceed ``_MAX_COVER_COLUMNS`` (beyond ~80
    degrees) is a coarser precision used.

    Order: the centre's row — centre, eastwards, then westwards — then
    the same row shifted north one step at a time, then south.

    Raises:
        ValueError: for out-of-range (or NaN) coordinates or a
            non-positive radius.
    """
    precision = precision_for_radius_km(radius_km)
    angle = radius_km / EARTH_RADIUS_KM * _COVER_PAD
    dlat = math.degrees(angle)
    lat_min, lat_max = lat - dlat, lat + dlat
    dlon = 180.0
    if -90.0 < lat_min and lat_max < 90.0:
        reach = math.sin(angle) / math.cos(math.radians(lat))
        if reach < 1.0:
            dlon = math.degrees(math.asin(reach)) * _COVER_PAD
    while (
        precision > 1
        and 2.0 * dlon * (1 << _GRID[precision][1]) / 360.0 + 2.0 > _MAX_COVER_COLUMNS
    ):
        precision -= 1
    lat_bits, lon_bits, height, width, _, lat_mask, lon_mask = _GRID[precision]
    columns = 1 << lon_bits

    lat_q, lon_q = _quantise_point(lat, lon, precision)
    # A box corner shares the centre's [lo, hi) cell convention, so the
    # block ends exactly where a walk comparing cell edges would stop.
    north = (_quantise(lat_max, -90.0, height) if lat_max < 90.0 else (1 << lat_bits) - 1) - lat_q
    south = lat_q - (_quantise(lat_min, -90.0, height) if lat_min > -90.0 else 0)
    east = _quantise(lon + dlon, -180.0, width) - lon_q
    west = lon_q - _quantise(lon - dlon, -180.0, width)
    if 1 + east + west >= columns:  # the whole parallel
        east, west = columns - 1, 0

    lat_part, lon_part = _axis_parts(lat_q, lon_q, precision)
    row = _walk(lon_part, east, west, lat_mask, lon_mask)
    rows = _walk(lat_part, north, south, lon_mask, lat_mask)
    return precision, tuple([above | cell for above in rows for cell in row])


def _walk(centre: int, ahead: int, back: int, fill: int, mask: int) -> List[int]:
    """``centre``, then ``ahead`` cells up its axis, then ``back`` down.

    Steps are taken on the interleaved bits themselves (``mask``: the
    axis's positions, ``fill``: the other axis's): with the other
    positions filled a carry runs straight through them (a borrow needs
    no help), and the mask drops what overflows — which is the wrap at
    the antimeridian.
    """
    cells = [centre]
    cell = centre
    for _ in range(ahead):
        cell = ((cell | fill) + 1) & mask
        cells.append(cell)
    cell = centre
    for _ in range(back):
        cell = (cell - 1) & mask
        cells.append(cell)
    return cells


def covering_cells(point: GeoPoint, radius_km: float) -> List[str]:
    """:func:`cover` rendered as geohash strings (same cells, same
    order): what the linear reference filter matches prefixes against."""
    precision, cells = cover(point.lat, point.lon, radius_km)
    return [cell_to_geohash(cell, precision) for cell in cells]


def _check_tables() -> None:
    """Sanity check run at import: tables must be permutations."""
    for direction_tables in _NEIGHBOR_TABLE.values():
        for table in direction_tables.values():
            if sorted(table) != sorted(GEOHASH_ALPHABET):
                raise AssertionError("corrupt geohash neighbor table")


_check_tables()


# ----------------------------------------------------------------------
# Integer (vectorized) cell encoding — the metro-kernel fast path
# ----------------------------------------------------------------------
# A geohash of ``p`` characters is ``5p`` interleaved bits. Keeping the
# raw bit string as a ``uint64`` ("cell id") instead of a base-32 string
# lets the sharded metro kernel encode a million endpoints with a couple
# dozen whole-array numpy operations, take prefixes with a shift
# (``cell >> 5`` is exactly the parent geohash character truncation),
# and compute the 3x3 neighborhood with quantized-coordinate
# arithmetic. ``cell_to_geohash``/``geohash_to_cell`` prove the two
# representations are the same encoding (see tests).


def encode_cells(lats, lons, precision: int):
    """Vectorized geohash of coordinate arrays as ``uint64`` cell ids.

    Bit-compatible with :func:`encode`: the returned integer is the
    geohash's 5*precision-bit string (see :func:`cell_to_geohash`).
    Accepts numpy arrays (or anything ``np.asarray`` takes) and returns
    a ``uint64`` array of the same shape. Coordinates are not validated:
    one beyond its axis lands in the first or last cell and NaN in the
    first, where the bisection's comparisons would leave them.
    """
    import numpy as np

    _bit_split(precision)  # validates
    lat_bits, lon_bits, height, width, _, _, _ = _GRID[precision]
    lat_arr = np.asarray(lats, dtype=np.float64)
    lon_arr = np.asarray(lons, dtype=np.float64)
    lat_q = _quantise_axis(np, lat_arr, -90.0, height, lat_bits)
    lon_q = _quantise_axis(np, lon_arr, -180.0, width, lon_bits)
    return interleave_cells(lat_q, lon_q, precision)


def _quantise_axis(np, values, lo: float, size: float, bits: int):
    """:func:`_quantise` over an array, clamped to the axis's ``2**bits``
    cells: the floor estimate, then one step against the exact cell
    edges. (The estimate alone is not the bisection's cell: its
    subtraction rounds right at cell boundaries, e.g. lon = -1e-87.)"""
    top = (1 << bits) - 1
    # fmax/fmin drop NaN, so the integer cast only sees 0..top.
    estimate = np.fmin(np.fmax((values - lo) / size, 0.0), float(top))
    q = estimate.astype(np.int64)
    edge = lo + q * size
    q += values >= edge + size
    q -= values < edge
    return np.clip(q, 0, top).astype(np.uint64)


#: ``_RUN_MASK[w]``: alternating runs of ``w`` set and ``w`` clear bits.
#: Step ``w`` of the mask-and-shift spread leaves every run of ``w``
#: source bits in its own field of width ``2w``; the squeeze undoes it.
_RUN_MASK: Dict[int, int] = {
    32: 0x00000000FFFFFFFF,
    16: 0x0000FFFF0000FFFF,
    8: 0x00FF00FF00FF00FF,
    4: 0x0F0F0F0F0F0F0F0F,
    2: 0x3333333333333333,
    1: 0x5555555555555555,
}


def _spread_bits(np, axis_q, bits: int):
    """Move bit ``j`` of each ``bits``-wide value to bit ``2j``."""
    x = np.asarray(axis_q, dtype=np.uint64) & np.uint64((1 << bits) - 1)
    for width in (16, 8, 4, 2, 1):
        x = (x | (x << np.uint64(width))) & np.uint64(_RUN_MASK[width])
    return x


def _squeeze_bits(np, x):
    """Inverse of :func:`_spread_bits`: gather the even bits of ``x``."""
    x = x & np.uint64(_RUN_MASK[1])
    for width in (1, 2, 4, 8, 16):
        x = (x | (x >> np.uint64(width))) & np.uint64(_RUN_MASK[2 * width])
    return x


def interleave_cells(lat_q, lon_q, precision: int):
    """Interleave quantized (lat, lon) axes into cell ids (vectorized).

    The last cell bit is a longitude bit when ``5 * precision`` is odd
    and a latitude bit otherwise, so that axis takes the even bits.
    """
    import numpy as np

    total, lon_bits = _bit_split(precision)
    lat = _spread_bits(np, lat_q, total - lon_bits)
    lon = _spread_bits(np, lon_q, lon_bits)
    one = np.uint64(1)
    return lon | (lat << one) if total % 2 else lat | (lon << one)


def split_cells(cells, precision: int):
    """De-interleave cell ids back into quantized (lat_q, lon_q) axes."""
    import numpy as np

    total, _ = _bit_split(precision)
    cells_arr = np.asarray(cells, dtype=np.uint64) & np.uint64((1 << total) - 1)
    even = _squeeze_bits(np, cells_arr)
    odd = _squeeze_bits(np, cells_arr >> np.uint64(1))
    return (odd, even) if total % 2 else (even, odd)


def cell_neighborhood(cells, precision: int):
    """The 3x3 block (cell itself + 8 neighbors) of each cell id.

    Returns a ``(len(cells), 9)`` ``uint64`` array. Latitude is clamped
    at the poles (the out-of-range row degenerates to the cell itself);
    longitude wraps at the antimeridian — both irrelevant at metro
    scale but kept well-defined.
    """
    import numpy as np

    total, lon_bits = _bit_split(precision)
    lat_bits = total - lon_bits
    lat_q, lon_q = split_cells(cells, precision)
    lat_max = np.uint64((1 << lat_bits) - 1)
    lon_mod = np.uint64(1 << lon_bits)
    out = np.empty((np.asarray(cells).size, 9), dtype=np.uint64)
    column = 0
    for dlat in (-1, 0, 1):
        for dlon in (-1, 0, 1):
            nlat = np.clip(
                lat_q.astype(np.int64) + dlat, 0, int(lat_max)
            ).astype(np.uint64)
            nlon = (
                (lon_q.astype(np.int64) + dlon) % int(lon_mod)
            ).astype(np.uint64)
            out[:, column] = interleave_cells(nlat, nlon, precision).reshape(-1)
            column += 1
    return out


def cell_to_geohash(cell: int, precision: int) -> str:
    """Render an integer cell id as its base-32 geohash string."""
    total, _ = _bit_split(precision)
    cell = int(cell)
    return "".join(
        [GEOHASH_ALPHABET[(cell >> shift) & 0b11111] for shift in range(total - 5, -1, -5)]
    )


def geohash_to_cell(geohash: str) -> int:
    """Parse a geohash string into its integer cell id."""
    if not geohash:
        raise ValueError("geohash must be non-empty")
    value = 0
    for char in geohash.lower():
        try:
            value = (value << 5) | _CHAR_TO_VALUE[char]
        except KeyError:
            raise ValueError(f"invalid geohash character: {char!r}") from None
    return value

