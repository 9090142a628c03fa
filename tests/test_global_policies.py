"""Unit tests for manager-side global selection policies."""

import pytest

from repro.geo import geohash as gh
from repro.geo.point import GeoPoint
from repro.geo.spatial_index import GeohashSpatialIndex
from repro.messages import DiscoveryQuery, NodeStatus
from repro.policy.global_policy import (
    GeoProximityFilter,
    GlobalSelectionPolicy,
)

USER_POINT = GeoPoint(44.97, -93.25)


def status(node_id, lat, lon, cores=4, utilization=0.0, isp=None, dedicated=False):
    return NodeStatus(
        node_id=node_id,
        lat=lat,
        lon=lon,
        geohash=gh.encode(lat, lon, 9),
        cores=cores,
        capacity_fps=cores * 10.0,
        attached_users=0,
        utilization=utilization,
        isp=isp,
        dedicated=dedicated,
    )


def query(top_n=3, isp=None, exclude=()):
    return DiscoveryQuery(
        "u1", USER_POINT.lat, USER_POINT.lon, top_n=top_n, isp=isp, exclude=exclude
    )


NEAR = status("near", 44.96, -93.24)
NEAR_2 = status("near2", 44.98, -93.26)
FAR = status("far", 41.88, -87.63)  # Chicago, ~570 km


# ----------------------------------------------------------------------
# GeoProximityFilter
# ----------------------------------------------------------------------
def test_filter_keeps_local_nodes():
    geo = GeoProximityFilter(radius_km=80.0, wide_radius_km=1_000.0)
    kept, widened = geo.apply(USER_POINT, [NEAR, FAR], top_n=1)
    assert [n.node_id for n in kept] == ["near"]
    assert not widened


def test_filter_widens_when_below_min_candidates():
    geo = GeoProximityFilter(radius_km=80.0, wide_radius_km=1_000.0)
    kept, widened = geo.apply(USER_POINT, [NEAR, FAR], top_n=2)
    assert {n.node_id for n in kept} == {"near", "far"}
    assert widened


def test_filter_does_not_report_widened_when_nothing_gained():
    geo = GeoProximityFilter(radius_km=80.0, wide_radius_km=1_000.0)
    kept, widened = geo.apply(USER_POINT, [NEAR], top_n=3)
    assert [n.node_id for n in kept] == ["near"]
    assert not widened


def test_filter_validates():
    with pytest.raises(ValueError):
        GeoProximityFilter(radius_km=100.0, wide_radius_km=50.0)
    with pytest.raises(ValueError):
        GeoProximityFilter(radius_km=0.0)
    # NaN passes a `<=`/`<` check; it used to fail only at the first select.
    with pytest.raises(ValueError):
        GeoProximityFilter(radius_km=float("nan"))
    with pytest.raises(ValueError):
        GeoProximityFilter(radius_km=5.0, wide_radius_km=float("nan"))


def test_filter_accepts_infinite_radii():
    """An infinite radius is "the whole registry" on both paths."""
    geo = GeoProximityFilter(radius_km=5.0, wide_radius_km=float("inf"))
    kept, widened = geo.apply(USER_POINT, [NEAR, FAR], top_n=2)
    assert {n.node_id for n in kept} == {"near", "far"} and widened
    index = GeohashSpatialIndex()
    for node in (NEAR, FAR):
        index.insert(node)
    policy = GlobalSelectionPolicy(geo_filter=geo)
    assert policy.select(query(top_n=2), [NEAR, FAR]) == (["near", "far"], True)
    assert policy.select(query(top_n=2), index=index) == (["near", "far"], True)


# ----------------------------------------------------------------------
# GlobalSelectionPolicy
# ----------------------------------------------------------------------
def test_policy_truncates_to_topn():
    policy = GlobalSelectionPolicy()
    nodes = [NEAR, NEAR_2, status("near3", 44.95, -93.23)]
    ids, _ = policy.select(query(top_n=2), nodes)
    assert len(ids) == 2


def test_policy_ranks_more_free_cores_higher():
    policy = GlobalSelectionPolicy()
    small = status("small", 44.96, -93.24, cores=2)
    big = status("big", 44.96, -93.24, cores=8)
    ids, _ = policy.select(query(), [small, big])
    assert ids[0] == "big"


def test_policy_penalizes_utilization():
    policy = GlobalSelectionPolicy()
    loaded = status("loaded", 44.96, -93.24, cores=8, utilization=0.9)
    idle = status("idle", 44.96, -93.24, cores=4, utilization=0.0)
    ids, _ = policy.select(query(), [loaded, idle])
    assert ids[0] == "idle"  # 4 free cores beat 0.8 free cores


def test_affiliation_is_a_bonus_not_a_veto():
    """A same-ISP node gets a nudge, but a much larger node still wins —
    a lexicographic affiliation-first sort would hide it entirely."""
    policy = GlobalSelectionPolicy()
    same_isp_small = status("samesmall", 44.96, -93.24, cores=2, isp="x")
    other_isp_big = status("otherbig", 44.96, -93.24, cores=8, isp="y")
    ids, _ = policy.select(query(top_n=2, isp="x"), [same_isp_small, other_isp_big])
    assert ids[0] == "otherbig"
    # but between equals, affiliation breaks the tie
    same_equal = status("same", 44.96, -93.24, cores=4, isp="x")
    other_equal = status("other", 44.96, -93.24, cores=4, isp="y")
    ids, _ = policy.select(query(isp="x"), [other_equal, same_equal])
    assert ids[0] == "same"


def test_exclusion_applies_before_selection():
    policy = GlobalSelectionPolicy()
    ids, _ = policy.select(query(exclude=("near",)), [NEAR, NEAR_2])
    assert ids == ["near2"]


def test_node_predicate_restricts_pool():
    policy = GlobalSelectionPolicy(node_predicate=lambda s: s.dedicated)
    dedicated = status("ded", 44.96, -93.24, dedicated=True)
    ids, _ = policy.select(query(), [NEAR, dedicated])
    assert ids == ["ded"]


def test_selection_is_deterministic_on_ties():
    policy = GlobalSelectionPolicy()
    a = status("aaa", 44.96, -93.24)
    b = status("bbb", 44.96, -93.24)
    first, _ = policy.select(query(), [b, a])
    second, _ = policy.select(query(), [a, b])
    assert first == second == ["aaa", "bbb"]


def test_empty_pool_returns_empty():
    ids, widened = GlobalSelectionPolicy().select(query(), [])
    assert ids == []
    assert not widened
