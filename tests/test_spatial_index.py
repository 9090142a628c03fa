"""Spatial index unit tests + indexed-vs-linear selection parity.

The fast path's correctness claim is exact: for identical registry
contents, ``GlobalSelectionPolicy.select`` must return *bit-identical*
results whether candidates come from the geohash index or from a full
linear scan. The property tests here drive both paths over seeded
randomized registries and require equality, not approximation.
"""

import math
import random

import pytest

from repro.messages import DiscoveryQuery, NodeStatus
from repro.policy.global_policy import (
    GeoProximityFilter,
    GlobalSelectionPolicy,
)
from repro.geo import geohash as gh
from repro.geo.geohash import encode
from repro.geo.point import GeoPoint
from repro.geo.spatial_index import GeohashSpatialIndex
from repro.geo.region import MSP_CENTER


def random_point(rng: random.Random, radius_km: float = 60.0) -> GeoPoint:
    distance = radius_km * math.sqrt(rng.random())
    bearing = rng.uniform(0.0, 2.0 * math.pi)
    return MSP_CENTER.offset_km(
        distance * math.cos(bearing), distance * math.sin(bearing)
    )


def make_status(
    node_id: str, point: GeoPoint, rng: random.Random, reported_at: float = 0.0
) -> NodeStatus:
    return NodeStatus(
        node_id=node_id,
        lat=point.lat,
        lon=point.lon,
        geohash=encode(point.lat, point.lon, precision=9),
        cores=rng.choice((2, 4, 8)),
        capacity_fps=rng.uniform(5.0, 60.0),
        attached_users=rng.randrange(0, 4),
        utilization=rng.random(),
        isp=rng.choice((None, "isp-a", "isp-b")),
        reported_at_ms=reported_at,
    )


def random_registry(rng: random.Random, n: int):
    return [make_status(f"n{i:04d}", random_point(rng), rng) for i in range(n)]


# ----------------------------------------------------------------------
# Index mechanics
# ----------------------------------------------------------------------
HOME = GeoPoint(44.97, -93.25)
#: Radii whose covers sit at bucket depths 6, 5, 4, 3, 2 and 1.
RADII_BY_DEPTH = (0.5, 4.0, 19.0, 80.0, 600.0, 2000.0)


def found(index: GeohashSpatialIndex, point: GeoPoint, radius_km: float):
    """Node ids ``within_cover`` returns around ``point``, in its order."""
    slots = index.within_cover(point.lat, point.lon, radius_km)
    return [index.status_at(slot).node_id for slot in slots.tolist()]


def test_insert_and_query_by_prefix():
    rng = random.Random(1)
    index = GeohashSpatialIndex()
    index.insert(make_status("a", HOME, rng))
    assert "a" in index
    assert len(index) == 1
    # Found through a cover at every bucket depth up to max_precision.
    depths = {gh.cover(HOME.lat, HOME.lon, radius_km)[0] for radius_km in RADII_BY_DEPTH}
    assert depths == set(range(1, index.max_precision + 1))
    for radius_km in RADII_BY_DEPTH:
        assert found(index, HOME, radius_km) == ["a"]


def test_query_deeper_than_max_precision_truncates():
    rng = random.Random(2)
    index = GeohashSpatialIndex()
    index.insert(make_status("a", HOME, rng))
    # A 100 m disc is covered at precision 7, deeper than the index keeps
    # buckets for; the lookup truncates to max_precision and still finds
    # the node.
    assert gh.cover(HOME.lat, HOME.lon, 0.1)[0] > index.max_precision
    assert found(index, HOME, 0.1) == ["a"]


def test_reinsert_same_cell_updates_status():
    rng = random.Random(3)
    index = GeohashSpatialIndex()
    index.insert(make_status("a", HOME, rng))
    fresher = make_status("a", HOME, rng, reported_at=999.0)
    index.insert(fresher)
    assert len(index) == 1
    (slot,) = index.within_cover(HOME.lat, HOME.lon, 19.0)
    assert index.status_at(slot).reported_at_ms == 999.0


def test_move_between_cells_reindexes():
    rng = random.Random(4)
    index = GeohashSpatialIndex()
    old = make_status("a", HOME, rng)
    new = make_status("a", GeoPoint(45.40, -92.50), rng)  # different cell
    assert old.geohash[:4] != new.geohash[:4]
    index.insert(old)
    index.insert(new)
    assert found(index, old.point, 0.5) == []
    assert found(index, new.point, 0.5) == ["a"]
    assert len(index) == 1


def test_remove_clears_all_buckets():
    rng = random.Random(5)
    index = GeohashSpatialIndex()
    index.insert(make_status("a", HOME, rng))
    index.remove("a")
    assert "a" not in index
    assert len(index) == 0
    for radius_km in RADII_BY_DEPTH:
        assert found(index, HOME, radius_km) == []
    index.remove("a")  # idempotent


def test_cover_cells_truncating_to_one_bucket_yield_the_node_once():
    rng = random.Random(6)
    index = GeohashSpatialIndex()
    index.insert(make_status("a", HOME, rng))
    # Several distinct precision-7 cells of the cover truncate to the
    # node's max_precision bucket: the node comes back once, not once
    # per cell.
    precision, cells = gh.cover(HOME.lat, HOME.lon, 0.1)
    shift = 5 * (precision - index.max_precision)
    assert len(cells) > len({cell >> shift for cell in cells})
    assert found(index, HOME, 0.1) == ["a"]


# ----------------------------------------------------------------------
# Indexed select() == linear select() (the parity property)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [7, 11, 23, 61])
@pytest.mark.parametrize(
    "radius_km,wide_km", [(4.0, 120.0), (12.0, 200.0), (80.0, 400.0)]
)
def test_indexed_selection_matches_linear_scan(seed, radius_km, wide_km):
    rng = random.Random(seed)
    registry = random_registry(rng, 400)
    index = GeohashSpatialIndex()
    for status in registry:
        index.insert(status)
    policy = GlobalSelectionPolicy(
        geo_filter=GeoProximityFilter(radius_km=radius_km, wide_radius_km=wide_km)
    )
    for i in range(50):
        point = random_point(rng)
        query = DiscoveryQuery(
            user_id=f"u{i}",
            lat=point.lat,
            lon=point.lon,
            top_n=rng.choice((1, 3, 5)),
            isp=rng.choice((None, "isp-a")),
        )
        assert policy.select(query, index=index) == policy.select(
            query, nodes=registry
        )


def test_parity_with_exclude_and_predicate():
    rng = random.Random(99)
    registry = random_registry(rng, 200)
    index = GeohashSpatialIndex()
    for status in registry:
        index.insert(status)
    policy = GlobalSelectionPolicy(
        geo_filter=GeoProximityFilter(radius_km=12.0, wide_radius_km=200.0),
        node_predicate=lambda s: s.cores >= 4,
    )
    excluded = tuple(s.node_id for s in registry[::7])
    for i in range(30):
        point = random_point(rng)
        query = DiscoveryQuery(
            user_id=f"u{i}", lat=point.lat, lon=point.lon, top_n=3, exclude=excluded
        )
        assert policy.select(query, index=index) == policy.select(
            query, nodes=registry
        )


def test_parity_after_churn():
    """Insert/update/remove interleaving must not desync index and scan."""
    rng = random.Random(5)
    registry = {s.node_id: s for s in random_registry(rng, 150)}
    index = GeohashSpatialIndex()
    for status in registry.values():
        index.insert(status)
    policy = GlobalSelectionPolicy(
        geo_filter=GeoProximityFilter(radius_km=12.0, wide_radius_km=200.0)
    )
    for step in range(60):
        action = rng.random()
        if action < 0.4 and registry:  # move/refresh an existing node
            node_id = rng.choice(sorted(registry))
            status = make_status(node_id, random_point(rng), rng, reported_at=step)
            registry[node_id] = status
            index.insert(status)
        elif action < 0.7 and registry:  # node ages out
            node_id = rng.choice(sorted(registry))
            del registry[node_id]
            index.remove(node_id)
        else:  # node joins
            status = make_status(f"j{step:03d}", random_point(rng), rng)
            registry[status.node_id] = status
            index.insert(status)
        point = random_point(rng)
        query = DiscoveryQuery(
            user_id=f"u{step}", lat=point.lat, lon=point.lon, top_n=3
        )
        assert policy.select(query, index=index) == policy.select(
            query, nodes=list(registry.values())
        )


def test_select_requires_exactly_one_source():
    policy = GlobalSelectionPolicy()
    query = DiscoveryQuery(user_id="u", lat=44.9, lon=-93.2, top_n=3)
    with pytest.raises(TypeError, match="exactly one"):
        policy.select(query)
    with pytest.raises(TypeError, match="exactly one"):
        policy.select(query, nodes=[], index=GeohashSpatialIndex())
