"""``ShardRouter.merge``: ``nsmallest`` over the pool, a lone partial as it is.

Each shard answers with its local TopN *in key order*, so when only one
shard answered (the usual discovery) its partial is the answer and the
router returns it without scoring anything again; two or more are
pooled and cut with ``heapq.nsmallest``. Both have to be what
``nsmallest`` over the pooled statuses returns, for any number of
partials. The key is a total order (node id breaks ties), so how the
nodes were dealt to shards cannot matter either.
"""

from __future__ import annotations

import heapq
import random

import pytest

from repro.controlplane import router as router_module
from repro.controlplane.router import PartialSelection, ShardRouter
from repro.controlplane.sharding import ShardMap
from repro.geo.geohash import encode
from repro.messages import DiscoveryQuery, NodeStatus
from repro.policy.global_policy import (
    GlobalSelectionPolicy,
    availability_sort_key,
)

LAT, LON = 44.97, -93.25


def node(i: int, rng: random.Random) -> NodeStatus:
    lat, lon = LAT + rng.uniform(-0.3, 0.3), LON + rng.uniform(-0.3, 0.3)
    return NodeStatus(
        node_id=f"n{i:03d}",
        lat=lat,
        lon=lon,
        geohash=encode(lat, lon, precision=9),
        cores=rng.choice((2, 4, 8, 16)),
        capacity_fps=30.0,
        attached_users=0,
        utilization=rng.choice((0.0, 0.25, 0.5, 0.5, 0.75)),
        isp=rng.choice((None, "ispA", "ispB")),
    )


def partials_of(nodes, parts, top_n, key):
    """``nodes`` dealt into ``parts`` shards, each answering as
    ``select_partial`` does: its count and its own TopN, best first."""
    shards = [nodes[i::parts] for i in range(parts)]
    return [
        PartialSelection(shard=i, count=len(own), statuses=tuple(heapq.nsmallest(top_n, own, key=key)))
        for i, own in enumerate(shards)
    ]


@pytest.mark.parametrize("parts", [1, 2, 4])
@pytest.mark.parametrize("isp", [None, "ispA"])
def test_merge_is_nsmallest_over_the_pooled_statuses(parts, isp):
    router = ShardRouter(ShardMap(count=4), GlobalSelectionPolicy())
    for seed in range(25):
        rng = random.Random(seed * 31 + parts)
        nodes = [node(i, rng) for i in range(rng.randrange(0, 40))]
        for top_n in (1, 3, 7):
            query = DiscoveryQuery(user_id="u", lat=LAT, lon=LON, top_n=top_n, isp=isp)
            key = availability_sort_key(query)
            local = partials_of(nodes, parts, top_n, key)
            pool = [status for partial in local for status in partial.statuses]
            want = tuple(s.node_id for s in heapq.nsmallest(top_n, pool, key=key))
            routed = router.merge(query, local)
            assert routed.node_ids == want
            assert routed.pool == len(pool) and not routed.widened
            assert want == tuple(s.node_id for s in heapq.nsmallest(top_n, nodes, key=key))


def test_widening_picks_the_run_set_and_the_merge_follows():
    rng = random.Random(5)
    nodes = [node(i, rng) for i in range(12)]
    query = DiscoveryQuery(user_id="u", lat=LAT, lon=LON, top_n=3)
    key = availability_sort_key(query)
    router = ShardRouter(ShardMap(count=4), GlobalSelectionPolicy())
    local = partials_of(nodes[:2], 2, 3, key)
    wide = partials_of(nodes, 4, 3, key)
    routed = router.merge(query, local, wide)
    assert routed.widened and routed.pool == sum(len(p.statuses) for p in wide)
    assert routed.node_ids == tuple(s.node_id for s in heapq.nsmallest(3, nodes, key=key))
    # A wide phase that found nothing more keeps the local answer.
    same = router.merge(query, local, partials_of(nodes[:2], 4, 3, key))
    assert not same.widened
    assert same.node_ids == tuple(s.node_id for s in heapq.nsmallest(3, nodes[:2], key=key))


def test_one_shard_answer_is_not_scored_again(monkeypatch):
    rng = random.Random(9)
    nodes = [node(i, rng) for i in range(10)]
    query = DiscoveryQuery(user_id="u", lat=LAT, lon=LON, top_n=3)
    (partial,) = partials_of(nodes, 1, 3, availability_sort_key(query))
    calls = []

    def counting_sort_key(query):
        inner = availability_sort_key(query)

        def key(status):
            calls.append(status.node_id)
            return inner(status)

        return key

    monkeypatch.setattr(router_module, "availability_sort_key", counting_sort_key)
    router = ShardRouter(ShardMap(count=4), GlobalSelectionPolicy())
    routed = router.merge(query, [partial])
    assert routed.node_ids == tuple(s.node_id for s in partial.statuses)
    assert calls == []


@pytest.mark.parametrize("parts", [1, 2])
@pytest.mark.parametrize("top_n", [0, -1])
def test_nothing_asked_for_is_nothing_merged(top_n, parts):
    rng = random.Random(2)
    nodes = [node(i, rng) for i in range(5)]
    query = DiscoveryQuery(user_id="u", lat=LAT, lon=LON, top_n=top_n)
    local = partials_of(nodes, parts, 3, availability_sort_key(query))
    assert ShardRouter(ShardMap(count=2), GlobalSelectionPolicy()).merge(query, local).node_ids == ()
