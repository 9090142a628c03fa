"""Exactness of the columnar (vectorised) discovery path.

The indexed path cuts and shortlists with numpy, whose ``sin``/``arcsin``
may differ from ``math``'s by an ulp — so vector results may *propose*
but never *decide*. These tests hold that contract where it is thinnest:

- a long seeded walk through every index maintenance operation (insert,
  same-cell refresh, move, remove, re-add into a reused slot, clear,
  snapshot restore), comparing the indexed answer with the linear-scan
  reference after every step;
- nodes an ulp inside / outside the radius, exact score ties and
  near-ties an ulp apart;
- the availability shortlist against ``heapq.nsmallest`` over the whole
  in-radius set, on one index and through the router, with ties exactly
  at its floor, zeros and infinities.
"""

from __future__ import annotations

import heapq
import math
import random
import warnings
from dataclasses import replace
from typing import Dict, List, Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.controlplane.router import PartialSelection, ShardRouter
from repro.controlplane.sharding import ShardMap
from repro.geo.geohash import encode
from repro.geo.point import GeoPoint, haversine_km_coords
from repro.geo.region import MSP_CENTER
from repro.geo.spatial_index import GeohashSpatialIndex, distance_guard_km
from repro.messages import DiscoveryQuery, NodeStatus
from repro.policy.global_policy import (
    AFFILIATION_BONUS,
    DISTANCE_PENALTY_PER_KM,
    GeoProximityFilter,
    GlobalSelectionPolicy,
    availability_sort_key,
)
from repro.protocol.events import HeartbeatReceived, PruneTick
from repro.protocol.global_select import GlobalSelectionMachine, RegistrySnapshot


def status_at(
    node_id: str,
    lat: float,
    lon: float,
    *,
    cores: int = 4,
    utilization: float = 0.5,
    isp: Optional[str] = None,
) -> NodeStatus:
    return NodeStatus(
        node_id=node_id,
        lat=lat,
        lon=lon,
        geohash=encode(lat, lon, precision=9),
        cores=cores,
        capacity_fps=30.0,
        attached_users=0,
        utilization=utilization,
        isp=isp,
    )


def random_point(rng: random.Random, radius_km: float = 30.0) -> GeoPoint:
    distance = radius_km * math.sqrt(rng.random())
    bearing = rng.uniform(0.0, 2.0 * math.pi)
    return MSP_CENTER.offset_km(
        distance * math.cos(bearing), distance * math.sin(bearing)
    )


def random_status(node_id: str, rng: random.Random) -> NodeStatus:
    point = random_point(rng)
    return status_at(
        node_id,
        point.lat,
        point.lon,
        cores=rng.choice((2, 4, 8)),
        utilization=rng.random(),
        isp=rng.choice((None, "isp-a", "isp-b")),
    )


def linear_partial(policy, query, nodes, radius_km):
    """What ``select_partial`` must return, from a plain scan."""
    pool = [n for n in nodes if n.node_id not in query.exclude]
    if policy.node_predicate is not None:
        pool = [n for n in pool if policy.node_predicate(n)]
    inside = [
        n
        for n in pool
        if haversine_km_coords(query.lat, query.lon, n.lat, n.lon) <= radius_km
    ]
    best = heapq.nsmallest(
        query.top_n, inside, key=availability_sort_key(query)
    )
    return len(inside), best


# ----------------------------------------------------------------------
# (a) every maintenance operation, parity after every step
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [3, 17, 2024])
def test_indexed_matches_linear_through_index_maintenance(seed):
    rng = random.Random(seed)
    geo = GeoProximityFilter(radius_km=6.0, wide_radius_km=45.0)
    policies = [
        GlobalSelectionPolicy(geo_filter=geo),
        GlobalSelectionPolicy(geo_filter=geo, node_predicate=lambda s: s.cores >= 4),
    ]
    # Nodes leave the registry only by expiry: every beat is stamped
    # with its step, and nothing prunes but the "remove" operation.
    machine = GlobalSelectionMachine(policies[0], heartbeat_timeout=1.0)
    index = machine.spatial_index
    # The reference: what was fed, kept here (the machine's registry is
    # a view of the index under test).
    registry: Dict[str, NodeStatus] = {}
    removed: List[str] = []
    saved: Optional[RegistrySnapshot] = None
    saved_registry: Dict[str, NodeStatus] = {}
    next_id = 0
    done: Dict[str, int] = {}

    def beat(status: NodeStatus) -> None:
        machine.handle(HeartbeatReceived(stamp=float(step), status=status))
        registry[status.node_id] = status

    for step in range(400):
        roll = rng.random()
        ids = sorted(registry)
        if roll < 0.25 or not ids:
            op = "insert"
            beat(random_status(f"n{next_id:04d}", rng))
            next_id += 1
        elif roll < 0.50:
            op = "refresh"  # same position, hence same cell: touches no bucket
            old = registry[rng.choice(ids)]
            beat(replace(old, utilization=rng.random(), cores=rng.choice((2, 4, 8))))
        elif roll < 0.65:
            op = "move"
            beat(random_status(rng.choice(ids), rng))
        elif roll < 0.80:
            op = "remove"  # the stalest one to three nodes (and ties) expire
            stamps = sorted(machine._stamps.values())
            cutoff = stamps[min(rng.randrange(3), len(stamps) - 1)]
            expired = machine.handle(PruneTick(stamp=cutoff + 1.5))
            removed.extend(effect.node_id for effect in expired)
            for effect in expired:
                del registry[effect.node_id]
        elif roll < 0.90 and removed:
            op = "re-add"  # lands in a slot a removed node freed
            beat(random_status(removed.pop(rng.randrange(len(removed))), rng))
        elif roll < 0.93:
            op = "clear"
            machine.restore_state(RegistrySnapshot((), {}))
            registry.clear()
        elif roll < 0.96 or saved is None:
            op = "snapshot"
            saved = machine.snapshot_state()
            saved_registry = dict(registry)
        else:
            op = "restore"
            machine.restore_state(saved)
            registry.clear()
            registry.update(saved_registry)
        done[op] = done.get(op, 0) + 1
        assert len(index) == len(registry) and machine.registry == registry

        nodes = list(registry.values())
        point = random_point(rng)
        exclude = tuple(rng.sample(ids, min(len(ids), rng.choice((0, 0, 2, 5)))))
        query = DiscoveryQuery(
            user_id=f"u{step}",
            lat=point.lat,
            lon=point.lon,
            top_n=rng.choice((1, 3, 5)),
            isp=rng.choice((None, "isp-a")),
            exclude=exclude,
        )
        for policy in policies:
            assert policy.select(query, index=index) == policy.select(
                query, nodes=nodes
            ), (step, op)
            for radius_km in (geo.radius_km, geo.wide_radius_km):
                assert policy.select_partial(
                    query, index=index, radius_km=radius_km
                ) == linear_partial(policy, query, nodes, radius_km), (step, op)
    assert set(done) == {
        "insert", "refresh", "move", "remove", "re-add", "clear", "snapshot", "restore",
    }


def test_direct_clear_and_slot_reuse_keep_columns_consistent():
    rng = random.Random(8)
    index: GeohashSpatialIndex[NodeStatus] = GeohashSpatialIndex()
    policy = GlobalSelectionPolicy(
        geo_filter=GeoProximityFilter(radius_km=10.0, wide_radius_km=60.0)
    )
    query = DiscoveryQuery(user_id="u", lat=MSP_CENTER.lat, lon=MSP_CENTER.lon, top_n=3)
    first = [random_status(f"a{i}", rng) for i in range(40)]
    for status in first:
        index.insert(status)
    assert policy.select(query, index=index) == policy.select(query, nodes=first)
    # Free every slot, then fill them with different nodes: a reused
    # slot must not keep the previous tenant's geometry or score.
    for status in first:
        index.remove(status.node_id)
    assert len(index) == 0 and policy.select(query, index=index) == ([], False)
    second = [random_status(f"b{i}", rng) for i in range(40)]
    for status in second:
        index.insert(status)
    assert policy.select(query, index=index) == policy.select(query, nodes=second)
    index.clear()
    assert len(index) == 0 and index.within_cover(query.lat, query.lon, 60.0).size == 0
    assert policy.select(query, index=index) == ([], False)
    for status in first[:5]:
        index.insert(status)
    assert policy.select(query, index=index) == policy.select(query, nodes=first[:5])


# ----------------------------------------------------------------------
# (b) boundary exactness
# ----------------------------------------------------------------------
@pytest.fixture(params=["numpy-sin", "skewed-sin"])
def vector_sin(request, monkeypatch):
    """Run a boundary test twice: as is, and with the vector ``sin`` off
    by up to ~10^4 ulps, differently for every operand — a stand-in for
    a platform whose numpy and libm disagree. The answers may not move:
    vector results never decide."""
    if request.param == "skewed-sin":
        import numpy as np

        true_sin = np.sin
        monkeypatch.setattr(
            np, "sin", lambda x: true_sin(x) * (1.0 + 1e-12 * true_sin(1e19 * x))
        )
    return request.param


def step_ulps(value: float, ulps: int) -> float:
    toward = math.inf if ulps > 0 else -math.inf
    for _ in range(abs(ulps)):
        value = math.nextafter(value, toward)
    return value


@pytest.mark.parametrize("base_radius_km", [0.7, 4.0, 80.0, 1500.0])
def test_membership_within_ulps_of_the_radius_is_the_scalar_decision(
    base_radius_km, vector_sin
):
    rng = random.Random(int(base_radius_km * 10))
    user = MSP_CENTER
    # Nodes in every direction, each at its own distance close to the
    # base radius; the query radius is then set to one node's *exact*
    # scalar distance, moved by a few ulps either way.
    ring: List[NodeStatus] = []
    for i in range(24):
        bearing = 2.0 * math.pi * i / 24
        distance = base_radius_km * (1.0 + rng.uniform(-1e-9, 1e-9))
        point = user.offset_km(distance * math.cos(bearing), distance * math.sin(bearing))
        ring.append(status_at(f"r{i:02d}", point.lat, point.lon))
    index: GeohashSpatialIndex[NodeStatus] = GeohashSpatialIndex()
    for status in ring:
        index.insert(status)
    query = DiscoveryQuery(user_id="u", lat=user.lat, lon=user.lon, top_n=len(ring))
    decided_both_ways = set()
    for pivot in ring[::3]:
        exact = haversine_km_coords(user.lat, user.lon, pivot.lat, pivot.lon)
        for ulps in (-3, -1, 0, 1, 3):
            radius_km = step_ulps(exact, ulps)
            policy = GlobalSelectionPolicy(
                geo_filter=GeoProximityFilter(
                    radius_km=radius_km, wide_radius_km=radius_km * 4
                )
            )
            expected = {
                s.node_id
                for s in ring
                if haversine_km_coords(user.lat, user.lon, s.lat, s.lon) <= radius_km
            }
            count, best = policy.select_partial(query, index=index, radius_km=radius_km)
            assert {s.node_id for s in best} == expected
            assert count == len(expected)
            assert policy.select(query, index=index) == policy.select(query, nodes=ring)
            decided_both_ways.add((pivot.node_id in expected, ulps >= 0))
    # the pivot itself flipped exactly at 0 ulps: in at >= 0, out below
    assert decided_both_ways == {(True, True), (False, False)}


def latitude_north_at(user: GeoPoint, distance_km: float) -> float:
    """Latitude due north of ``user`` whose scalar distance is
    ``distance_km`` to within a few ulps (bisection on the scalar cut)."""
    lo, hi = user.lat, user.lat + 2.0 * distance_km / 111.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if haversine_km_coords(user.lat, user.lon, mid, user.lon) < distance_km:
            lo = mid
        else:
            hi = mid
    return hi


def test_guard_band_hands_the_decision_to_the_scalar_cut(vector_sin):
    """Every node inside the guard band is in the answer iff scalar says so."""
    user = MSP_CENTER
    radius_km = 4.0
    guard = distance_guard_km(radius_km)
    index: GeohashSpatialIndex[NodeStatus] = GeohashSpatialIndex()
    nodes = []
    for i, offset in enumerate((-0.9, -0.5, -1e-3, 1e-3, 0.5, 0.9)):
        lat = latitude_north_at(user, radius_km + offset * guard)
        nodes.append(status_at(f"g{i}", lat, user.lon))
        index.insert(nodes[-1])
    slots = index.within_cover(user.lat, user.lon, radius_km)
    got = {index.status_at(slot).node_id for slot in slots.tolist()}
    want = {
        n.node_id
        for n in nodes
        if haversine_km_coords(user.lat, user.lon, n.lat, n.lon) <= radius_km
    }
    assert got == want and 0 < len(want) < len(nodes)


def test_exact_score_ties_break_by_node_id_like_the_scalar_path(vector_sin):
    user = MSP_CENTER
    spot = user.offset_km(1.0, 1.0)
    # Same position, same cores/utilization: identical scores. Ids are
    # inserted out of order so neither path can lean on insertion order.
    ids = ["t07", "t02", "t09", "t00", "t05", "t03", "t08", "t01", "t06", "t04"]
    tied = [status_at(i, spot.lat, spot.lon, cores=8, utilization=0.25) for i in ids]
    worse = [
        status_at(f"w{i}", spot.lat, spot.lon, cores=2, utilization=0.9)
        for i in range(20)
    ]
    index: GeohashSpatialIndex[NodeStatus] = GeohashSpatialIndex()
    for status in worse[:10] + tied + worse[10:]:
        index.insert(status)
    policy = GlobalSelectionPolicy(
        geo_filter=GeoProximityFilter(radius_km=4.0, wide_radius_km=40.0)
    )
    for top_n in (1, 3, 7, 10, 12):
        query = DiscoveryQuery(user_id="u", lat=user.lat, lon=user.lon, top_n=top_n)
        got, widened = policy.select(query, index=index)
        assert (got, widened) == policy.select(query, nodes=worse + tied)
        assert got[: min(top_n, 10)] == sorted(ids)[: min(top_n, 10)]


def test_scores_an_ulp_apart_order_exactly(vector_sin):
    """Near-ties: availability equal, distances differing by ulps of latitude."""
    user = MSP_CENTER
    base = user.offset_km(2.0, 0.0)
    near = [
        status_at(f"k{i:02d}", step_ulps(base.lat, i - 8), base.lon, cores=8, utilization=0.5)
        for i in range(16)
    ]
    filler = [status_at(f"f{i}", base.lat, base.lon, cores=2, utilization=0.5) for i in range(30)]
    index: GeohashSpatialIndex[NodeStatus] = GeohashSpatialIndex()
    for status in filler + near:
        index.insert(status)
    policy = GlobalSelectionPolicy(
        geo_filter=GeoProximityFilter(radius_km=4.0, wide_radius_km=40.0)
    )
    for top_n in (1, 2, 5, 16):
        for isp in (None, "isp-a"):
            query = DiscoveryQuery(
                user_id="u", lat=user.lat, lon=user.lon, top_n=top_n, isp=isp
            )
            assert policy.select(query, index=index) == policy.select(
                query, nodes=filler + near
            )


def test_affiliation_bonus_can_lift_a_node_past_the_vector_shortlist():
    """The same-ISP bonus is outside the vector score; the shortlist
    slack must still let a bonus-lifted node through."""
    user = MSP_CENTER
    spot = user.offset_km(1.0, 0.0)
    strong = [
        status_at(f"s{i}", spot.lat, spot.lon, cores=8, utilization=0.5) for i in range(6)
    ]  # score ~4.0
    lifted = status_at("mine", spot.lat, spot.lon, cores=4, utilization=0.4, isp="isp-a")
    # score ~2.4 (+2.0 with the bonus = 4.4: the best of all)
    nodes = strong + [lifted]
    index: GeohashSpatialIndex[NodeStatus] = GeohashSpatialIndex()
    for status in nodes:
        index.insert(status)
    policy = GlobalSelectionPolicy(
        geo_filter=GeoProximityFilter(radius_km=4.0, wide_radius_km=40.0)
    )
    query = DiscoveryQuery(user_id="u", lat=user.lat, lon=user.lon, top_n=2, isp="isp-a")
    got, _ = policy.select(query, index=index)
    assert got == policy.select(query, nodes=nodes)[0]
    assert got[0] == "mine"


# ----------------------------------------------------------------------
# Short geohashes
# ----------------------------------------------------------------------
def test_insert_rejects_a_geohash_coarser_than_the_index():
    """Regression: a 4-char geohash used to be bucketed at depths 1-4
    only, so every precision-5/6 query silently missed the node."""
    index: GeohashSpatialIndex[NodeStatus] = GeohashSpatialIndex()
    ok = status_at("ok", 44.97, -93.25)
    index.insert(ok)
    with pytest.raises(ValueError, match="coarser than index precision 6"):
        index.insert(replace(ok, node_id="short", geohash=ok.geohash[:4]))
    with pytest.raises(ValueError, match="coarser than index precision 6"):
        index.insert(replace(ok, node_id="empty", geohash=""))
    # A refused *move* leaves the node where it was.
    with pytest.raises(ValueError, match="coarser"):
        index.insert(replace(ok, geohash=ok.geohash[:4]))
    assert len(index) == 1 and "ok" in index
    (slot,) = index.within_cover(ok.lat, ok.lon, 4.0)
    assert index.status_at(slot) is ok
    # Exactly max_precision characters is a position at index resolution.
    index.insert(replace(ok, node_id="six", geohash=ok.geohash[:6]))
    assert index.within_cover(ok.lat, ok.lon, 0.5).size == 2


# ----------------------------------------------------------------------
# The cells are a superset of the disc (all three paths share them)
# ----------------------------------------------------------------------
def test_every_path_counts_the_whole_disc_at_mid_latitude():
    """At 45 N a 4 km radius is wider than a precision-5 cell; the old
    3x3 block dropped ~1% of in-radius nodes from the linear, indexed
    and sharded paths alike. ``linear_partial`` uses no cells at all."""
    rng = random.Random(45)
    nodes = [random_status(f"n{i:04d}", rng) for i in range(3000)]
    index: GeohashSpatialIndex[NodeStatus] = GeohashSpatialIndex()
    for status in nodes:
        index.insert(status)
    geo = GeoProximityFilter(radius_km=4.0, wide_radius_km=60.0)
    policy = GlobalSelectionPolicy(geo_filter=geo)
    for i in range(150):
        point = random_point(rng, 25.0)
        query = DiscoveryQuery(user_id=f"u{i}", lat=point.lat, lon=point.lon, top_n=3)
        count, best = linear_partial(policy, query, nodes, geo.radius_km)
        assert policy.select_partial(
            query, index=index, radius_km=geo.radius_km
        ) == (count, best)
        assert len(geo.apply(query.point, nodes, top_n=0)[0]) == count


# ----------------------------------------------------------------------
# (c) the availability shortlist
# ----------------------------------------------------------------------
def test_top_n_infinitely_available_nodes_are_all_answered():
    """Regression: with at least TopN in-radius nodes of infinite
    availability (``utilization=-inf`` is accepted in process) the
    shortlist's floor was ``inf − inf``, NaN, so it kept no candidate and
    ``select(index=)`` answered ``([], False)``."""
    user = MSP_CENTER
    spots = [user.offset_km(0.5 * i, 0.0) for i in range(4)]
    nodes = [
        status_at(f"n{i}", spot.lat, spot.lon, utilization=-math.inf)
        for i, spot in enumerate(spots[:3])
    ]
    nodes.append(status_at("plain", spots[3].lat, spots[3].lon))
    index: GeohashSpatialIndex[NodeStatus] = GeohashSpatialIndex()
    for status in nodes:
        index.insert(status)
    policy = GlobalSelectionPolicy(
        geo_filter=GeoProximityFilter(radius_km=4.0, wide_radius_km=40.0)
    )
    query = DiscoveryQuery(user_id="u", lat=user.lat, lon=user.lon, top_n=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no NaN arithmetic on the way
        got = policy.select(query, index=index)
        partial = policy.select_partial(query, index=index, radius_km=4.0)
    assert got == policy.select(query, nodes=nodes) == (["n0", "n1", "n2"], False)
    assert partial == linear_partial(policy, query, nodes, 4.0)


SHORTLIST_GEO = GeoProximityFilter(radius_km=4.0, wide_radius_km=40.0)
#: Where a node stands, as a fraction of a radius due north of the user
#: (``1.0``: on the radius, to the ulp of latitude) or at a bearing.
PLACEMENTS = (0.0, 0.3, 0.9, 1.0, 1.5)
#: 3.9375 and 4.0 are closer than a 4 km radius's whole penalty (0.08).
AVAILABILITIES = (0.0, 0.0, 1.0, 2.5, 3.75, 3.9375, 4.0, 6.0, 8.0, math.inf)


def on_radius(user: GeoPoint, radius_km: float) -> float:
    """A latitude due north of ``user`` at the largest scalar distance
    that is still ``<= radius_km``."""
    lat = latitude_north_at(user, radius_km)
    while haversine_km_coords(user.lat, user.lon, lat, user.lon) > radius_km:
        lat = math.nextafter(lat, -math.inf)
    return lat


def with_availability(
    node_id: str, lat: float, lon: float, availability: float, isp: Optional[str]
) -> NodeStatus:
    """A status whose ``availability_score`` is exactly ``availability``
    (0, infinite, or ≥ 0.5: ``cores`` is the power of two that puts
    ``availability / cores`` in (0.5, 1], where ``1 − (1 − x)`` is exact)."""
    if availability == 0.0:
        cores, utilization = 4, 1.0
    elif availability == math.inf:
        cores, utilization = 4, -math.inf
    else:
        cores = 1 << max(0, math.ceil(math.log2(availability)))
        utilization = 1.0 - availability / cores
    status = status_at(node_id, lat, lon, cores=cores, utilization=utilization, isp=isp)
    assert status.availability_score == availability
    return status


@st.composite
def shortlist_cases(draw):
    user = MSP_CENTER
    wide = draw(st.booleans())
    radius_km = SHORTLIST_GEO.wide_radius_km if wide else SHORTLIST_GEO.radius_km
    edge = on_radius(user, radius_km)

    def place(node_id: str, availability: float, where: float, isp: Optional[str]):
        if where == 1.0:
            return with_availability(node_id, edge, user.lon, availability, isp)
        bearing = draw(st.floats(0.0, 2.0 * math.pi))
        point = user.offset_km(
            where * radius_km * math.cos(bearing), where * radius_km * math.sin(bearing)
        )
        return with_availability(node_id, point.lat, point.lon, availability, isp)

    count = draw(st.integers(1, 12))
    nodes = [
        place(
            f"n{i:02d}",
            draw(st.sampled_from(AVAILABILITIES)),
            draw(st.sampled_from(PLACEMENTS)),
            draw(st.sampled_from((None, "isp-a", "isp-b"))),
        )
        for i in range(count)
    ]
    isp = draw(st.sampled_from((None, "isp-a")))
    exclude = tuple(draw(st.sets(st.sampled_from([n.node_id for n in nodes]), max_size=2)))
    top_n = draw(st.integers(1, count + 3))
    # Ties exactly at the floor V − P − bonus of the radius drawn: one
    # same-ISP node on the user, scoring V − P like the node of
    # availability V added on the radius, and one on the radius itself.
    pool = [
        n
        for n in nodes
        if n.node_id not in exclude
        and haversine_km_coords(user.lat, user.lon, n.lat, n.lon) <= radius_km
    ]
    if len(pool) > top_n:
        nth_best = sorted((n.availability_score for n in pool), reverse=True)[top_n - 1]
        bonus = AFFILIATION_BONUS if isp is not None else 0.0
        floor = nth_best - (DISTANCE_PENALTY_PER_KM * radius_km + bonus)
        if math.isfinite(floor) and floor >= 0.5 and draw(st.booleans()):
            prefix = draw(st.sampled_from(("a", "z")))  # either side of "n.." in a tie
            nodes.append(with_availability(f"{prefix}0", user.lat, user.lon, floor, "isp-a"))
            nodes.append(with_availability(f"{prefix}1", edge, user.lon, floor, None))
            nodes.append(with_availability(f"{prefix}2", edge, user.lon, nth_best, None))
    query = DiscoveryQuery(
        user_id="u", lat=user.lat, lon=user.lon, top_n=top_n, isp=isp, exclude=exclude
    )
    return query, nodes


def floor_tie_case():
    """The floor as close to binding as doubles allow: with TopN 2 and
    V = 4.0, a same-ISP node of availability exactly V − P − bonus on
    the user scores V − P, ~1e-14 below the node of availability V a
    hair inside the radius."""
    user = MSP_CENTER
    edge = on_radius(user, 4.0)
    floor = 4.0 - (DISTANCE_PENALTY_PER_KM * 4.0 + AFFILIATION_BONUS)
    near = user.offset_km(1.0, 0.0)
    nodes = [
        with_availability("a0", user.lat, user.lon, floor, "isp-a"),
        with_availability("n00", edge, user.lon, 4.0, None),
        with_availability("n01", near.lat, near.lon, 8.0, None),
        with_availability("n02", near.lat, near.lon, 1.0, "isp-a"),
    ]
    query = DiscoveryQuery(user_id="u", lat=user.lat, lon=user.lon, top_n=2, isp="isp-a")
    return query, nodes


@settings(max_examples=300, deadline=None)
@given(case=shortlist_cases())
@example(case=floor_tie_case())
def test_the_shortlisted_top_n_is_the_top_n_of_the_whole_disc(case):
    query, nodes = case
    policy = GlobalSelectionPolicy(geo_filter=SHORTLIST_GEO)
    router = ShardRouter(ShardMap(count=4), policy)
    single: GeohashSpatialIndex[NodeStatus] = GeohashSpatialIndex()
    shards: List[GeohashSpatialIndex[NodeStatus]] = [GeohashSpatialIndex() for _ in range(4)]
    for status in nodes:
        single.insert(status)
        shards[router.owner_of(status)].insert(status)
    for radius_km in (SHORTLIST_GEO.radius_km, SHORTLIST_GEO.wide_radius_km):
        assert policy.select_partial(
            query, index=single, radius_km=radius_km
        ) == linear_partial(policy, query, nodes, radius_km)
    want = policy.select(query, nodes=nodes)
    assert policy.select(query, index=single) == want

    def fetch(shard: int, radius_km: float) -> PartialSelection:
        count, best = policy.select_partial(query, index=shards[shard], radius_km=radius_km)
        return PartialSelection(shard=shard, count=count, statuses=tuple(best))

    routed = router.select(query, fetch)
    assert (list(routed.node_ids), routed.widened) == want
