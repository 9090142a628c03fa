"""Ground truth for discovery: brute force from the paper's definition.

Every other discovery test in this repo compares one path with another
(indexed vs linear, routed vs single manager). That cannot see a bug all
paths share — the fixed 3x3 cell block dropped ~1.3 % of in-radius nodes
at 45 N on *every* path for ten PRs, because they all asked the same
``covering_cells``. This file asks nothing of the code under test but
its answer. The oracle is §IV-B read literally — "a geo-proximity filter
to rule out unqualified nodes", widened "to include remote nodes ... as
a last resort", then the candidates "prioritize[d] ... based on resource
availability, network affiliation" and proximity, TopN of them — over
the whole registry, with its own great-circle distance and **no cells
anywhere**. ``select`` (indexed and linear), ``select_partial`` and the
routed cross-shard merge must each return exactly that, from the equator
to 85 degrees, in both hemispheres and across the antimeridian.
"""

from __future__ import annotations

import math
import random
from typing import List, Sequence, Tuple

import pytest

from repro.controlplane.router import PartialSelection, ShardRouter
from repro.controlplane.sharding import ShardMap
from repro.geo.geohash import encode
from repro.messages import DiscoveryQuery, NodeStatus
from repro.policy.global_policy import (
    AFFILIATION_BONUS,
    DISTANCE_PENALTY_PER_KM,
    GeoProximityFilter,
    GlobalSelectionPolicy,
)
from repro.protocol.events import HeartbeatReceived, PartialDiscoveryRequested
from repro.protocol.global_select import GlobalSelectionMachine

EARTH_RADIUS_KM = 6371.0088


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------
def great_circle_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Haversine, from the textbook."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = phi2 - phi1
    dlam = math.radians(lon2) - math.radians(lon1)
    a = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(a)))


def in_disc(query: DiscoveryQuery, registry: Sequence[NodeStatus], radius_km: float) -> List[NodeStatus]:
    return [
        node
        for node in registry
        if node.node_id not in query.exclude
        and great_circle_km(query.lat, query.lon, node.lat, node.lon) <= radius_km
    ]


def best_of(query: DiscoveryQuery, candidates: Sequence[NodeStatus]) -> Tuple[str, ...]:
    """TopN by free cores + ISP affiliation - distance, ids breaking ties."""

    def score(node: NodeStatus) -> float:
        free_cores = max(0.0, node.cores * (1.0 - node.utilization))
        same_isp = query.isp is not None and node.isp == query.isp
        distance = great_circle_km(query.lat, query.lon, node.lat, node.lon)
        return free_cores + AFFILIATION_BONUS * same_isp - DISTANCE_PENALTY_PER_KM * distance

    ranked = sorted(candidates, key=lambda node: (-score(node), node.node_id))
    return tuple(node.node_id for node in ranked[: query.top_n])


def oracle(
    query: DiscoveryQuery, registry: Sequence[NodeStatus], radius_km: float, wide_radius_km: float
) -> Tuple[Tuple[str, ...], bool]:
    local = in_disc(query, registry, radius_km)
    if len(local) >= query.top_n:
        return best_of(query, local), False
    wide = in_disc(query, registry, wide_radius_km)
    if len(wide) > len(local):
        return best_of(query, wide), True
    return best_of(query, local), False


# ----------------------------------------------------------------------
# Seeded sites
# ----------------------------------------------------------------------
def destination(lat: float, lon: float, distance_km: float, bearing: float) -> Tuple[float, float]:
    """The point ``distance_km`` along ``bearing``; longitude wrapped."""
    phi, lam, arc = math.radians(lat), math.radians(lon), distance_km / EARTH_RADIUS_KM
    sin_phi2 = math.sin(phi) * math.cos(arc) + math.cos(phi) * math.sin(arc) * math.cos(bearing)
    phi2 = math.asin(max(-1.0, min(1.0, sin_phi2)))
    lam2 = lam + math.atan2(
        math.sin(bearing) * math.sin(arc) * math.cos(phi),
        math.cos(arc) - math.sin(phi) * math.sin(phi2),
    )
    return math.degrees(phi2), (math.degrees(lam2) + 540.0) % 360.0 - 180.0


def scatter(rng: random.Random, lat: float, lon: float, reach_km: float) -> Tuple[float, float]:
    # sqrt: uniform over the disc's area, so the rim is well populated
    return destination(lat, lon, reach_km * math.sqrt(rng.random()), rng.uniform(0.0, 2.0 * math.pi))


def registry_around(rng: random.Random, lat: float, lon: float, reach_km: float, count: int) -> List[NodeStatus]:
    nodes = []
    for i in range(count):
        nlat, nlon = scatter(rng, lat, lon, reach_km)
        nodes.append(
            NodeStatus(
                node_id=f"n{i:04d}",
                lat=nlat,
                lon=nlon,
                geohash=encode(nlat, nlon, precision=9),
                cores=rng.choice((2, 4, 8, 16)),
                capacity_fps=30.0,
                attached_users=rng.randrange(4),
                utilization=rng.random(),
                isp=rng.choice((None, "ispA", "ispB")),
            )
        )
    return nodes


#: (latitude, longitude): the equator to 85 degrees, both hemispheres,
#: Greenwich, mid-longitudes and both sides of the antimeridian.
SITES = [
    (0.0, 0.0),
    (0.0, 179.99),
    (15.0, -60.0),
    (30.0, 120.0),
    (44.9778, -93.2650),
    (45.0, -179.995),
    (-45.0, 179.999),
    (60.0, 10.0),
    (-60.0, 180.0),
    (75.0, -150.0),
    (85.0, 30.0),
    (-85.0, -179.9),
]
#: (radius, wide radius): cover precisions 6, 5, 4 and 3.
RADII = [(0.5, 3.0), (4.0, 12.0), (19.0, 60.0), (80.0, 200.0)]


def site_id(site) -> str:
    return f"{site[0]:g},{site[1]:g}"


def queries_for(rng: random.Random, lat: float, lon: float, radius_km: float, count: int) -> List[DiscoveryQuery]:
    out = []
    for i in range(count):
        qlat, qlon = scatter(rng, lat, lon, 1.5 * radius_km)
        out.append(
            DiscoveryQuery(
                user_id=f"u{i}",
                lat=qlat,
                lon=qlon,
                # Every fourth asks for more than the disc holds: widening.
                top_n=(1, 3, 5, 40)[i % 4],
                isp=rng.choice((None, "ispA")),
                exclude=tuple(f"n{rng.randrange(60):04d}" for _ in range(rng.randrange(3))),
            )
        )
    return out


@pytest.mark.parametrize("radius_km, wide_radius_km", RADII)
@pytest.mark.parametrize("site", SITES, ids=site_id)
def test_every_path_returns_the_brute_force_answer(site, radius_km, wide_radius_km):
    lat, lon = site
    rng = random.Random(f"{site}/{radius_km}")
    registry = registry_around(rng, lat, lon, 3.0 * radius_km, 140)
    policy = GlobalSelectionPolicy(
        geo_filter=GeoProximityFilter(radius_km=radius_km, wide_radius_km=wide_radius_km)
    )
    single = GlobalSelectionMachine(policy, heartbeat_timeout=math.inf)
    for node in registry:
        single.handle(HeartbeatReceived(stamp=0.0, status=node))
    routers = []
    for shards in (4, 16):
        router = ShardRouter(ShardMap(count=shards), policy)
        machines = [GlobalSelectionMachine(policy, heartbeat_timeout=math.inf) for _ in range(shards)]
        for node in registry:
            machines[router.owner_of(node)].handle(HeartbeatReceived(stamp=0.0, status=node))
        routers.append((router, machines))

    widened_seen = 0
    for query in queries_for(rng, lat, lon, radius_km, 12):
        want = oracle(query, registry, radius_km, wide_radius_km)
        widened_seen += want[1]

        ids, widened = policy.select(query, index=single.spatial_index)
        assert (tuple(ids), widened) == want, "indexed select"
        ids, widened = policy.select(query, nodes=registry)
        assert (tuple(ids), widened) == want, "linear select"

        for phase_km in (radius_km, wide_radius_km):
            disc = in_disc(query, registry, phase_km)
            count, best = policy.select_partial(query, index=single.spatial_index, radius_km=phase_km)
            assert count == len(disc), "select_partial count"
            assert tuple(node.node_id for node in best) == best_of(query, disc), "select_partial TopN"

        for router, machines in routers:

            def fetch(shard: int, phase_km: float) -> PartialSelection:
                (reply,) = machines[shard].handle(
                    PartialDiscoveryRequested(now=0.0, stamp=0.0, query=query, radius_km=phase_km)
                )
                return PartialSelection(shard=shard, count=reply.count, statuses=reply.statuses)

            routed = router.select(query, fetch)
            assert (routed.node_ids, routed.widened) == want, f"routed, {router.shard_map.count} shards"
    assert widened_seen, "no query widened: the site does not exercise the fallback"


def test_the_oracle_sees_what_parity_could_not():
    """The PR 13 bug, replayed against this file's oracle: a cover that
    is a fixed 3x3 block loses in-radius nodes at 45 N, and brute force
    notices where path-vs-path parity did not."""
    from repro.geo import geohash as gh

    rng = random.Random(13)
    lat, lon = 44.9778, -93.2650
    registry = registry_around(rng, lat, lon, 12.0, 1500)
    missed = 0
    for query in queries_for(rng, lat, lon, 4.0, 40):
        centre = gh.encode(query.lat, query.lon, 5)
        block = {centre, *gh.neighbors(centre)}
        for node in in_disc(query, registry, 4.0):
            missed += node.geohash[:5] not in block
        precision, cells = gh.cover(query.lat, query.lon, 4.0)
        covered = {gh.cell_to_geohash(cell, precision) for cell in cells}
        assert all(node.geohash[:precision] in covered for node in in_disc(query, registry, 4.0))
    assert missed > 0
