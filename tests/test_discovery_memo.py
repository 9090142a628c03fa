"""Discovery's static half remembered: the geo cut's memo and its validity.

``GeohashSpatialIndex.within_cover`` hands back the slot array it cut
for the same ``(lat, lon, radius_km)`` for as long as every covered
bucket still holds the slot array the cut was made from. Nothing here
times anything. The first part counts with object identity — the same
array or a new one — which is the mechanism itself; the second part
bounds what the memo may hold; the third is a stateful differential:
under random interleavings of joins, refreshes, moves, removals, slot
reuse and ``clear``, a long-lived index, an index built afresh from the same
statuses and the brute-force oracle of ``tests/test_discovery_oracle.py``
give one answer, through ``select`` and through ``select_partial`` +
``ShardRouter``. A test that wants the unmemoised answer builds a fresh
index: there is no switch.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, precondition, rule

from repro.controlplane.router import PartialSelection, ShardRouter
from repro.controlplane.sharding import ShardMap
from repro.geo import geohash as gh
from repro.geo import spatial_index
from repro.geo.point import GeoPoint, haversine_km_coords
from repro.geo.spatial_index import MEMO_ELEMENTS, GeohashSpatialIndex
from repro.messages import DiscoveryQuery, NodeStatus
from repro.policy.global_policy import GeoProximityFilter, GlobalSelectionPolicy
from repro.protocol.events import HeartbeatReceived
from repro.protocol.global_select import GlobalSelectionMachine
from tests.test_discovery_oracle import RADII, SITES, destination, in_disc, oracle

HOME = GeoPoint(44.9778, -93.2650)


def node(node_id: str, lat: float, lon: float, precision: int = 9, **fields) -> NodeStatus:
    return NodeStatus(
        node_id=node_id,
        lat=lat,
        lon=lon,
        geohash=gh.encode(lat, lon, precision),
        cores=fields.pop("cores", 4),
        capacity_fps=30.0,
        attached_users=fields.pop("attached_users", 1),
        utilization=fields.pop("utilization", 0.25),
        **fields,
    )


def north_of(point: GeoPoint, km: float, node_id: str, precision: int = 9) -> NodeStatus:
    lat, lon = destination(point.lat, point.lon, km, 0.0)
    return node(node_id, lat, lon, precision)


def ids(index: GeohashSpatialIndex, cut) -> List[str]:
    return sorted(index.status_at(slot).node_id for slot in cut.tolist())


def filled(count: int = 30) -> Tuple[GeohashSpatialIndex, List[NodeStatus]]:
    """Nodes on a spiral out to ~6 km around HOME."""
    index: GeohashSpatialIndex = GeohashSpatialIndex()
    nodes = []
    for i in range(count):
        lat, lon = destination(HOME.lat, HOME.lon, 0.2 * (i + 1), 2.4 * i)
        nodes.append(node(f"n{i:02d}", lat, lon))
        index.insert(nodes[-1])
    return index, nodes


def ask(index: GeohashSpatialIndex, radius_km: float = 4.0, at: GeoPoint = HOME):
    """The standing query: twice, so that the second answer is kept."""
    index.within_cover(at.lat, at.lon, radius_km)
    return index.within_cover(at.lat, at.lon, radius_km)


def same(first, second) -> bool:
    return first is second


# ----------------------------------------------------------------------
# (a) the one change the buckets never saw: a move inside a cell
# ----------------------------------------------------------------------
def test_a_move_inside_its_cell_across_the_radius_is_seen():
    """Same geohash, same bucket, new coordinates: membership of every
    bucket is what it was, so only the position itself can tell the
    memo that the remembered membership is stale."""
    index: GeohashSpatialIndex = GeohashSpatialIndex()
    inside = north_of(HOME, 3.9, "mover", precision=6)
    outside = north_of(HOME, 4.1, "mover", precision=6)
    assert inside.geohash == outside.geohash, "pick offsets that share the cell"
    index.insert(north_of(HOME, 1.0, "anchor"))
    index.insert(inside)
    assert ids(index, ask(index)) == ["anchor", "mover"]
    index.insert(outside)
    assert ids(index, index.within_cover(HOME.lat, HOME.lon, 4.0)) == ["anchor"]
    index.insert(inside)
    assert ids(index, index.within_cover(HOME.lat, HOME.lon, 4.0)) == ["anchor", "mover"]


# ----------------------------------------------------------------------
# (b) identity is the mechanism's count
# ----------------------------------------------------------------------
def test_a_repeated_query_returns_the_same_read_only_arrays():
    index, _ = filled()
    first = index.within_cover(HOME.lat, HOME.lon, 4.0)
    second = index.within_cover(HOME.lat, HOME.lon, 4.0)  # second sight: kept
    assert not same(first, second) and ids(index, first) == ids(index, second)
    for _ in range(3):
        assert same(index.within_cover(HOME.lat, HOME.lon, 4.0), second)
    assert (index.cuts_computed, index.cuts_remembered) == (2, 3)
    # What is shared cannot be written to (a first sight is the caller's own).
    for cut in (second, index.within_cover(0.0, 0.0, 4.0)):  # the last: empty
        assert not cut.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            cut[:1] = 0


def test_a_same_place_refresh_invalidates_nothing():
    index, nodes = filled()
    cut = ask(index)
    for status in nodes:
        index.insert(replace(status, utilization=0.5, attached_users=3))
    assert same(index.within_cover(HOME.lat, HOME.lon, 4.0), cut)


FAR = GeoPoint(45.5, -92.0)  # ~115 km from HOME: in no cell a 4 km disc covers


@pytest.mark.parametrize("where", ["covered", "uncovered"])
@pytest.mark.parametrize("change", ["join", "leave", "move in", "move out", "move within"])
def test_only_a_change_in_a_covered_cell_makes_a_new_cut(change, where):
    index, nodes = filled()
    live = {status.node_id: status for status in nodes}
    spot = HOME if where == "covered" else FAR
    resident = north_of(spot, 0.3, "resident", precision=6)
    elsewhere = north_of(GeoPoint(44.0, -94.5), 0.0, "resident", precision=6)
    moved = north_of(spot, 0.31, "resident", precision=6)
    assert moved.geohash == resident.geohash
    live["resident"] = elsewhere if change == "move in" else resident
    index.insert(live["resident"])
    before = ask(index)
    if change == "leave":
        index.remove("resident")
        del live["resident"]
    else:
        arrival = {
            "join": north_of(spot, 0.5, "newcomer"),
            "move in": resident,
            "move out": elsewhere,
            "move within": moved,
        }[change]
        index.insert(arrival)
        live[arrival.node_id] = arrival
    after = index.within_cover(HOME.lat, HOME.lon, 4.0)
    assert same(before, after) == (where == "uncovered")
    assert ids(index, after) == sorted(
        status.node_id
        for status in live.values()
        if haversine_km_coords(HOME.lat, HOME.lon, status.lat, status.lon) <= 4.0
    )


def test_a_join_in_a_cell_that_was_empty_makes_a_new_cut():
    """An empty covered cell has no array whose identity could change."""
    index: GeohashSpatialIndex = GeohashSpatialIndex()
    index.insert(north_of(HOME, 3.0, "north"))
    assert ids(index, ask(index)) == ["north"]
    south = north_of(HOME, -3.0, "south")
    assert south.geohash[:5] != gh.encode(*destination(HOME.lat, HOME.lon, 3.0, 0.0), 5)
    index.insert(south)
    assert ids(index, index.within_cover(HOME.lat, HOME.lon, 4.0)) == ["north", "south"]
    empty = ask(index, at=FAR)
    assert empty.size == 0 and same(index.within_cover(FAR.lat, FAR.lon, 4.0), empty)
    index.insert(north_of(FAR, 1.0, "far"))
    assert ids(index, index.within_cover(FAR.lat, FAR.lon, 4.0)) == ["far"]


def test_filtering_never_writes_to_the_remembered_arrays():
    index, nodes = filled()
    cut = ask(index)
    slots = cut.copy()
    geo = GeoProximityFilter(radius_km=4.0, wide_radius_km=12.0)
    got = geo.within_indexed(HOME, index, 4.0)
    assert got is cut  # no filter: the remembered array itself
    excluded = tuple(n.node_id for n in nodes[::3])
    got = geo.within_indexed(
        HOME, index, 4.0, exclude=excluded, predicate=lambda s: s.node_id != "n01"
    )
    assert 0 < got.size < slots.size
    assert not set(ids(index, got)) & ({"n01"} | set(excluded))
    policy = GlobalSelectionPolicy(geo_filter=geo)
    query = DiscoveryQuery(user_id="u", lat=HOME.lat, lon=HOME.lon, top_n=3, exclude=excluded)
    assert policy.select(query, index=index) == policy.select(query, nodes=nodes)
    assert same(index.within_cover(HOME.lat, HOME.lon, 4.0), cut)
    assert np.array_equal(cut, slots)


# ----------------------------------------------------------------------
# (c) the bound
# ----------------------------------------------------------------------
def held(index: GeohashSpatialIndex) -> int:
    """What the memo holds, recounted from its entries."""
    total = sum(spatial_index._MEMO_KEY + slots.size for _, slots in index._memo.values())
    assert total == index._memo_held
    return total


def test_stored_elements_stay_under_the_constant(monkeypatch):
    """Ten times as many distinct standing queries as fit: the oldest go."""
    monkeypatch.setattr(spatial_index, "MEMO_ELEMENTS", 1 << 12)
    index, _ = filled()
    ask(index)
    fit = (1 << 12) // held(index)  # entries the size of HOME's
    points = [
        GeoPoint(*destination(HOME.lat, HOME.lon, 0.001 * i, 0.1 * i)) for i in range(10 * fit)
    ]
    peak = 0
    for point in points:
        cut = ask(index, at=point)
        assert same(index.within_cover(point.lat, point.lon, 4.0), cut)
        peak = max(peak, held(index))
    assert fit // 2 <= len(index._memo) <= 2 * fit and peak <= 1 << 12
    # First in, first out: the newest are remembered, the oldest are not.
    computed = index.cuts_computed
    index.within_cover(points[-1].lat, points[-1].lon, 4.0)
    assert index.cuts_computed == computed
    index.within_cover(points[0].lat, points[0].lon, 4.0)
    assert index.cuts_computed == computed + 1


def test_one_off_queries_store_a_key_not_arrays():
    index, _ = filled()
    for i in range(50):
        index.within_cover(HOME.lat + 1e-5 * i, HOME.lon, 4.0)
    assert len(index._memo) == 50
    assert all(cut is spatial_index._SEEN_ONCE for cut in index._memo.values())
    assert held(index) == 50 * spatial_index._MEMO_KEY
    assert (index.cuts_computed, index.cuts_remembered) == (50, 0)


def test_an_oversize_cut_is_answered_and_not_kept(monkeypatch):
    monkeypatch.setattr(spatial_index, "MEMO_ELEMENTS", 64 * 20)  # keeps cuts of <= 20
    index, nodes = filled()
    for _ in range(3):
        wide = index.within_cover(HOME.lat, HOME.lon, 12.0)
        assert ids(index, wide) == sorted(n.node_id for n in nodes)
    assert index._memo[(HOME.lat, HOME.lon, 12.0)] is spatial_index._SEEN_ONCE
    assert index.cuts_remembered == 0
    small = ask(index, radius_km=1.0)
    assert 0 < small.size <= 20 and same(index.within_cover(HOME.lat, HOME.lon, 1.0), small)
    # A kept cut that outgrows the limit is dropped, not kept stale.
    for i in range(25):
        index.insert(north_of(HOME, 0.03 * (i + 1), f"x{i:02d}"))
    assert index.within_cover(HOME.lat, HOME.lon, 1.0).size > 20
    assert index._memo[(HOME.lat, HOME.lon, 1.0)] is spatial_index._SEEN_ONCE
    held(index)


def test_clear_and_restore_state_empty_the_memo():
    index, nodes = filled()
    home = ids(index, ask(index))
    assert index._memo and held(index) > 0
    index.clear()
    assert not index._memo and held(index) == 0
    policy = GlobalSelectionPolicy(geo_filter=GeoProximityFilter(radius_km=4.0, wide_radius_km=12.0))
    machine = GlobalSelectionMachine(policy, heartbeat_timeout=math.inf)
    for status in nodes:
        machine.handle(HeartbeatReceived(stamp=0.0, status=status))
    cut = ask(machine.spatial_index)
    machine.restore_state(machine.snapshot_state())
    assert not machine.spatial_index._memo and held(machine.spatial_index) == 0
    again = machine.spatial_index.within_cover(HOME.lat, HOME.lon, 4.0)
    assert not same(again, cut) and ids(machine.spatial_index, again) == home


def test_the_cover_is_remembered_too_and_cannot_be_edited():
    gh.cover.cache_clear()
    first = gh.cover(HOME.lat, HOME.lon, 4.0)
    assert gh.cover(HOME.lat, HOME.lon, 4.0) is first and isinstance(first[1], tuple)
    assert gh.cover.cache_info().hits == 1
    with pytest.raises(ValueError):
        gh.cover(math.nan, 0.0, 4.0)
    with pytest.raises(ValueError):  # a refusal is not remembered as an answer
        gh.cover(math.nan, 0.0, 4.0)


# ----------------------------------------------------------------------
# The stateful differential
# ----------------------------------------------------------------------
NODE_IDS = [f"n{i:04d}" for i in range(14)]
SHARDS = 4
unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
bearing = st.floats(min_value=0.0, max_value=2.0 * math.pi, allow_nan=False)


class MemoDifferential(RuleBasedStateMachine):
    """One registry, held three ways, asked the same questions."""

    def __init__(self) -> None:
        super().__init__()
        self.live: Dict[str, NodeStatus] = {}
        self.single: GeohashSpatialIndex = GeohashSpatialIndex()
        self.shards: List[GeohashSpatialIndex] = [GeohashSpatialIndex() for _ in range(SHARDS)]
        self.standing: List[DiscoveryQuery] = []

    @initialize(site=st.sampled_from(SITES), radii=st.sampled_from(RADII[:2]))
    def settle(self, site, radii) -> None:
        self.site = site
        self.radius_km, self.wide_radius_km = radii
        self.policy = GlobalSelectionPolicy(
            geo_filter=GeoProximityFilter(radius_km=radii[0], wide_radius_km=radii[1])
        )
        self.router = ShardRouter(ShardMap(count=SHARDS), self.policy)

    # -- the registry, three ways ---------------------------------------
    def put(self, status: NodeStatus) -> None:
        old = self.live.get(status.node_id)
        if old is not None and self.router.owner_of(old) != self.router.owner_of(status):
            self.shards[self.router.owner_of(old)].remove(status.node_id)
        self.live[status.node_id] = status
        self.single.insert(status)
        self.shards[self.router.owner_of(status)].insert(status)

    def somewhere(self, reach: float, along: float, precision: int, node_id: str) -> NodeStatus:
        lat, lon = destination(*self.site, 3.0 * self.radius_km * math.sqrt(reach), along)
        return node(node_id, lat, lon, precision, cores=2 + 2 * (len(node_id + str(along)) % 4))

    # -- what can happen to a node --------------------------------------
    @rule(which=st.sampled_from(NODE_IDS), reach=unit, along=bearing, precision=st.sampled_from((6, 9)))
    def join_or_move_across_cells(self, which, reach, along, precision) -> None:
        self.put(self.somewhere(reach, along, precision, which))

    @precondition(lambda self: self.live)
    @rule(pick=unit, utilization=unit, users=st.integers(0, 4))
    def refresh_in_place(self, pick, utilization, users) -> None:
        old = self.chosen(pick)
        self.put(replace(old, utilization=utilization, attached_users=users))

    @precondition(lambda self: self.live)
    @rule(pick=unit, north=unit, east=unit)
    def move_inside_its_cell(self, pick, north, east) -> None:
        old = self.chosen(pick)
        south_lat, north_lat, west_lon, east_lon = gh.bounding_box(old.geohash[:6])
        lat = south_lat + (north_lat - south_lat) * (0.01 + 0.98 * north)
        lon = west_lon + (east_lon - west_lon) * (0.01 + 0.98 * east)
        moved = replace(old, lat=lat, lon=lon, geohash=gh.encode(lat, lon, len(old.geohash)))
        assert moved.geohash[:6] == old.geohash[:6]
        self.put(moved)

    @precondition(lambda self: self.live)
    @rule(pick=unit)
    def leave(self, pick) -> None:
        gone = self.chosen(pick)
        del self.live[gone.node_id]
        self.single.remove(gone.node_id)  # its slot is the next join's
        self.shards[self.router.owner_of(gone)].remove(gone.node_id)

    @precondition(lambda self: len(self.live) > 8)  # rare: it forgets everything
    @rule()
    def clear(self) -> None:
        self.live.clear()
        for index in (self.single, *self.shards):
            index.clear()

    def chosen(self, pick: float) -> NodeStatus:
        return self.live[sorted(self.live)[min(int(pick * len(self.live)), len(self.live) - 1)]]

    # -- the questions ---------------------------------------------------
    @precondition(lambda self: len(self.standing) < 3)  # few, so they are asked again
    @rule(reach=unit, along=bearing, top_n=st.sampled_from((1, 3, 5, 40)),
          isp=st.sampled_from((None, "ispA")), skip=st.sets(st.sampled_from(NODE_IDS), max_size=2))
    def a_user_arrives(self, reach, along, top_n, isp, skip) -> None:
        lat, lon = destination(*self.site, 1.5 * self.radius_km * math.sqrt(reach), along)
        query = DiscoveryQuery(
            user_id=f"u{len(self.standing)}", lat=lat, lon=lon, top_n=top_n, isp=isp,
            exclude=tuple(sorted(skip)),
        )
        self.standing.append(query)
        self.answer(query)

    @precondition(lambda self: self.standing)
    @rule(pick=unit)
    def a_standing_user_asks_again(self, pick) -> None:
        self.answer(self.standing[min(int(pick * len(self.standing)), len(self.standing) - 1)])

    def answer(self, query: DiscoveryQuery) -> None:
        registry = list(self.live.values())
        want = oracle(query, registry, self.radius_km, self.wide_radius_km)
        fresh: GeohashSpatialIndex = GeohashSpatialIndex()
        for status in registry:
            fresh.insert(status)
        everyone = replace(query, exclude=())
        for radius_km in (self.radius_km, self.wide_radius_km):
            members = sorted(n.node_id for n in in_disc(everyone, registry, radius_km))
            for index in (self.single, fresh):
                cut = index.within_cover(query.lat, query.lon, radius_km)
                assert ids(index, cut) == members, f"members within {radius_km} km"
        for name, index in (("long-lived", self.single), ("fresh", fresh)):
            got, widened = self.policy.select(query, index=index)
            assert (tuple(got), widened) == want, f"{name} select"

        def fetch(shard: int, radius_km: float) -> PartialSelection:
            count, best = self.policy.select_partial(
                query, index=self.shards[shard], radius_km=radius_km
            )
            return PartialSelection(shard=shard, count=count, statuses=tuple(best))

        routed = self.router.select(query, fetch)
        assert (routed.node_ids, routed.widened) == want, "select_partial + merge"

    def teardown(self) -> None:
        for index in (self.single, *self.shards):
            assert held(index) <= MEMO_ELEMENTS
            assert len(index) == len([s for s in self.live.values() if s.node_id in index])


TestMemoDifferential = MemoDifferential.TestCase
TestMemoDifferential.settings = settings(
    max_examples=80, stateful_step_count=40, deadline=None
)
