"""Property test: sharded routed discovery == single-manager select.

The control plane's determinism contract, held bit-for-bit: over random
node populations (including expired-heartbeat entries) and random query
points (including points whose covering cells straddle shard
boundaries), the :class:`ShardRouter`'s merged TopN — fetched from
machines that each hold only their shard's partition of the registry —
equals the answer one machine holding the whole registry gives, same
ids, same order, same ``widened`` flag — on the query's first, second
and third ask, so cold cuts, stored cuts and memo-served cuts are all
held to it.
"""

from __future__ import annotations

from typing import List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controlplane.router import PartialSelection, ShardRouter
from repro.controlplane.sharding import ShardMap
from repro.geo.geohash import encode
from repro.messages import DiscoveryQuery, NodeStatus
from repro.policy.global_policy import (
    GeoProximityFilter,
    GlobalSelectionPolicy,
)
from repro.protocol.effects import ReplyCandidates, ReplyPartialCandidates
from repro.protocol.events import (
    DiscoveryRequested,
    HeartbeatReceived,
    PartialDiscoveryRequested,
)
from repro.protocol.global_select import GlobalSelectionMachine

#: Heartbeats older than this (at query time ``NOW``) are expired.
TIMEOUT = 100.0
NOW = 250.0
FRESH_STAMP = 200.0  # alive at NOW
STALE_STAMP = 0.0  # expired at NOW

# A box a few hundred km across: spans many precision-4 cells, so
# random points land on both sides of shard boundaries.
lats = st.floats(min_value=44.0, max_value=46.0, allow_nan=False)
lons = st.floats(min_value=-94.0, max_value=-91.0, allow_nan=False)


@st.composite
def populations(draw) -> List[Tuple[NodeStatus, float]]:
    n = draw(st.integers(min_value=0, max_value=24))
    out: List[Tuple[NodeStatus, float]] = []
    for i in range(n):
        lat, lon = draw(lats), draw(lons)
        status = NodeStatus(
            node_id=f"n{i:02d}",
            lat=lat,
            lon=lon,
            geohash=encode(lat, lon, precision=9),
            cores=draw(st.integers(min_value=1, max_value=16)),
            capacity_fps=30.0,
            attached_users=0,
            utilization=draw(
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
            ),
            isp=draw(st.sampled_from([None, "ispA", "ispB"])),
        )
        stamp = draw(st.sampled_from([FRESH_STAMP, STALE_STAMP]))
        out.append((status, stamp))
    return out


@st.composite
def queries(draw) -> DiscoveryQuery:
    return DiscoveryQuery(
        user_id="u",
        lat=draw(lats),
        lon=draw(lons),
        top_n=draw(st.integers(min_value=1, max_value=5)),
        isp=draw(st.sampled_from([None, "ispA"])),
    )


@settings(max_examples=120, deadline=None)
@given(
    population=populations(),
    query=queries(),
    shards=st.sampled_from([1, 2, 3, 5]),
    radius_km=st.sampled_from([5.0, 25.0, 120.0]),
)
def test_routed_select_is_bit_identical(population, query, shards, radius_km):
    policy = GlobalSelectionPolicy(
        geo_filter=GeoProximityFilter(radius_km=radius_km, wide_radius_km=400.0)
    )

    reference = GlobalSelectionMachine(policy, heartbeat_timeout=TIMEOUT)
    shard_map = ShardMap(count=shards)
    router = ShardRouter(shard_map, policy)
    machines = [
        GlobalSelectionMachine(policy, heartbeat_timeout=TIMEOUT)
        for _ in range(shards)
    ]
    for status, stamp in population:
        reference.handle(HeartbeatReceived(stamp=stamp, status=status))
        machines[router.owner_of(status)].handle(
            HeartbeatReceived(stamp=stamp, status=status)
        )

    # Expired nodes surface NodeExpired effects alongside the reply —
    # pick out the reply on both sides.
    (want,) = [
        e
        for e in reference.handle(
            DiscoveryRequested(now=NOW, stamp=NOW, query=query)
        )
        if isinstance(e, ReplyCandidates)
    ]

    fetches = []

    def fetch(shard: int, phase_radius_km: float) -> PartialSelection:
        fetches.append(shard)
        (reply,) = [
            e
            for e in machines[shard].handle(
                PartialDiscoveryRequested(
                    now=NOW, stamp=NOW, query=query, radius_km=phase_radius_km
                )
            )
            if isinstance(e, ReplyPartialCandidates)
        ]
        return PartialSelection(
            shard=shard, count=reply.count, statuses=reply.statuses
        )

    def remembered() -> int:
        return sum(m.spatial_index.cuts_remembered for m in machines)

    # A standing query: its shards cut it (cold), cut and keep it
    # (stored), then answer from their memos (remembered). The plan and
    # the key's distances are memo hits from the second ask on.
    for sight in ("cold", "stored", "remembered"):
        fetches.clear()
        before = remembered()
        routed = router.select(query, fetch)
        assert routed.node_ids == want.node_ids, sight
        assert routed.widened == want.widened, sight
        assert remembered() - before == (len(fetches) if sight == "remembered" else 0)
