"""The routing and scoring memos answer exactly what they remember.

Three pure functions are memoised by plain values: a discovery phase's
plan (:func:`repro.controlplane.sharding.disc_owners`), a heartbeat's
owner shard (:func:`~repro.controlplane.sharding.owner_of_prefix`) and
the exact sort key's distance
(:func:`repro.policy.global_policy.key_distance_km`). Each is held here
to the unmemoised computation on fresh objects — on a first and on a
repeated call — and each cache to its bound.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_right

import pytest
from hypothesis import given, settings, strategies as st

from repro.controlplane.router import ShardRouter
from repro.controlplane.sharding import (
    OWNER_MEMO,
    PLAN_MEMO,
    ShardMap,
    disc_owners,
    owner_of_prefix,
)
from repro.geo import geohash as gh
from repro.geo.point import haversine_km_coords
from repro.messages import DiscoveryQuery, NodeStatus
from repro.policy.global_policy import DISTANCE_MEMO, GlobalSelectionPolicy, key_distance_km

RADII = [0.05, 0.5, 4.0, 8.0, 80.0, 400.0, 2500.0]
#: Points on shard and cell boundaries: the equator and the prime
#: meridian (a 2-shard map splits the cell space there), both signs of
#: zero, the antimeridian and the poles.
EDGES = [
    (0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0),
    (51.4779, -0.0), (51.4779, 0.0), (51.4779, -1e-12), (51.4779, 1e-12),
    (-0.0, 179.99999), (0.0, -180.0), (89.9, 12.0), (-90.0, 0.0), (90.0, -0.0),
    (44.98, -93.26), (45.0, -93.515625),
]
maps = st.builds(
    lambda count, precision: ShardMap(count=min(count, 32**precision), precision=precision),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=6),
)
points = st.one_of(
    st.sampled_from(EDGES),
    st.tuples(
        st.floats(min_value=-90.0, max_value=90.0),
        st.floats(min_value=-180.0, max_value=180.0),
    ),
)


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


@settings(max_examples=300, deadline=None)
@given(maps, points, st.sampled_from(RADII))
def test_the_remembered_plan_is_the_owners_of_a_fresh_cover(shard_map, point, radius_km):
    lat, lon = point
    fresh = ShardMap(count=shard_map.count, precision=shard_map.precision)
    want = fresh.owners_of_cells(*gh.cover.__wrapped__(lat, lon, radius_km))
    for _ in range(2):
        assert disc_owners(shard_map.count, shard_map.precision, lat, lon, radius_km) == want


@settings(max_examples=200, deadline=None)
@given(maps, points, st.sampled_from(RADII))
def test_the_router_plans_with_the_memo(shard_map, point, radius_km):
    lat, lon = point
    router = ShardRouter(shard_map, GlobalSelectionPolicy())
    query = DiscoveryQuery(user_id="u", lat=lat, lon=lon, top_n=3)
    want = shard_map.owners_of_cells(*gh.cover.__wrapped__(lat, lon, radius_km))
    assert router.plan(query, radius_km) == want


@settings(max_examples=300, deadline=None)
@given(maps, points, st.integers(min_value=1, max_value=12))
def test_the_remembered_owner_is_the_maps_owner(shard_map, point, length):
    geohash = gh.encode(*point, precision=max(length, shard_map.precision))
    precision = shard_map.precision
    want = ShardMap(count=shard_map.count, precision=precision).owner_of_geohash(geohash)
    for _ in range(2):
        assert owner_of_prefix(shard_map.count, precision, geohash[:precision]) == want
    status = NodeStatus("n", point[0], point[1], geohash, 4, 30.0, 0, 0.5)
    assert ShardRouter(shard_map, GlobalSelectionPolicy()).owner_of(status) == want


@settings(max_examples=200, deadline=None)
@given(maps, st.integers(min_value=0, max_value=(1 << 60) - 1))
def test_the_closed_form_owner_is_the_range_bisection(shard_map, value):
    cell = value % shard_map.cell_space
    starts = [shard_map.shard_range(i)[0] for i in range(shard_map.count)]
    assert shard_map.owner_of_cell(cell) == bisect_right(starts, cell) - 1


def test_a_too_short_geohash_is_refused_on_every_call():
    router = ShardRouter(ShardMap(count=4, precision=4), GlobalSelectionPolicy())
    status = NodeStatus("n", 45.0, -93.0, "9zv", 4, 30.0, 0, 0.5)
    for _ in range(3):
        with pytest.raises(ValueError, match="coarser than shard precision"):
            router.owner_of(status)
        with pytest.raises(ValueError, match="coarser than shard precision"):
            owner_of_prefix(4, 4, "9zv")


SIGNED = [0.0, -0.0, 1e-300, -1e-300, 45.0, -93.26, 90.0, -90.0, 180.0, -180.0, math.nan]


@pytest.mark.parametrize("a", SIGNED)
@pytest.mark.parametrize("b", SIGNED)
def test_the_remembered_distance_is_the_haversine_bit_for_bit(a, b):
    """Signed zeros share a cache entry (``0.0 == -0.0``), so their
    distances must be bit-identical; NaN is never equal, so it always
    misses and computes."""
    for args in ((a, b, b, a), (a, a, b, b), (b, a, 0.0, -0.0), (44.98, a, b, -93.26)):
        want = haversine_km_coords(*args)
        for _ in range(2):
            got = key_distance_km(*args)
            if math.isnan(want):
                assert math.isnan(got)
            else:
                assert bits(got) == bits(want), args


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=-90.0, max_value=90.0), st.floats(min_value=-180.0, max_value=180.0),
    st.floats(min_value=-90.0, max_value=90.0), st.floats(min_value=-180.0, max_value=180.0),
)
def test_the_remembered_distance_matches_anywhere(alat, alon, blat, blon):
    want = bits(haversine_km_coords(alat, alon, blat, blon))
    assert bits(key_distance_km(alat, alon, blat, blon)) == want
    assert bits(key_distance_km(alat, alon, blat, blon)) == want
    assert bits(key_distance_km(-alat, alon, -blat, blon)) == bits(
        haversine_km_coords(-alat, alon, -blat, blon)
    )


@pytest.mark.parametrize(
    "memo, bound, fill",
    [
        (disc_owners, PLAN_MEMO, lambda i: (16, 4, 44.0 + i * 1e-4, -93.0, 4.0)),
        (owner_of_prefix, OWNER_MEMO, lambda i: (16, 4, gh.cell_to_geohash(i, 4))),
        (key_distance_km, DISTANCE_MEMO, lambda i: (44.0, -93.0, 44.0 + i * 1e-6, -93.0)),
    ],
    ids=["plan", "owner", "distance"],
)
def test_no_memo_outgrows_its_bound(memo, bound, fill):
    for i in range(bound + 50):
        memo(*fill(i))
        if i % 997 == 0:
            assert memo.cache_info().currsize <= bound
    info = memo.cache_info()
    assert info.maxsize == bound and info.currsize == bound
