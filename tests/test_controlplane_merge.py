"""``ShardRouter.merge``: ``nsmallest`` over the pool, a lone partial as it is.

Each shard answers with its local TopN *in key order*, so when only one
shard answered (the usual discovery) its partial is the answer and the
router returns it without scoring anything again; two or more are
pooled and cut with ``heapq.nsmallest``. Both have to be what
``nsmallest`` over the pooled statuses returns — for any key factory,
not only the default one, for ties the key does not break, and for any
number of partials.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import replace
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controlplane.router import PartialSelection, ShardRouter
from repro.controlplane.sharding import ShardMap
from repro.geo.geohash import encode
from repro.messages import DiscoveryQuery, NodeStatus
from repro.policy.global_policy import (
    GlobalSelectionPolicy,
    availability_sort_key,
)
from repro.policy.reputation import ReputationTracker, reputation_sort_key

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


def reputation_factory(rng: random.Random, nodes: List[NodeStatus]):
    """A tracker with history: some identities proven, some flaky."""
    tracker = ReputationTracker(target_session_ms=1_000.0)
    for status in nodes:
        for session in range(rng.randrange(0, 4)):
            start = 10_000.0 * session
            tracker.record_online(status.node_id, start)
            tracker.record_departure(status.node_id, start + rng.uniform(10.0, 9_000.0))
        if rng.random() < 0.7:
            tracker.record_online(status.node_id, 50_000.0)
    return reputation_sort_key(tracker, clock=lambda: 60_000.0)


def coarse_factory(query: DiscoveryQuery):
    """Ties galore and no tie-breaker: only position can order equals."""
    return lambda status: status.cores


def partials_of(nodes, parts, top_n, key):
    """``nodes`` dealt into ``parts`` shards, each answering as
    ``select_partial`` does: its count and its own TopN, best first."""
    shards = [nodes[i::parts] for i in range(parts)]
    return [
        PartialSelection(shard=i, count=len(own), statuses=tuple(heapq.nsmallest(top_n, own, key=key)))
        for i, own in enumerate(shards)
    ]


FACTORIES = ["availability", "reputation", "coarse"]


@pytest.mark.parametrize("parts", [1, 2, 4])
@pytest.mark.parametrize("factory_name", FACTORIES)
@pytest.mark.parametrize("isp", [None, "ispA"])
def test_merge_is_nsmallest_over_the_pooled_statuses(parts, factory_name, isp):
    for seed in range(25):
        rng = random.Random(seed * 31 + parts)
        nodes = [node(i, rng) for i in range(rng.randrange(0, 40))]
        factory = {
            "availability": availability_sort_key,
            "reputation": reputation_factory(rng, nodes),
            "coarse": coarse_factory,
        }[factory_name]
        router = ShardRouter(ShardMap(count=4), GlobalSelectionPolicy(sort_key_factory=factory))
        for top_n in (1, 3, 7):
            query = DiscoveryQuery(user_id="u", lat=LAT, lon=LON, top_n=top_n, isp=isp)
            key = factory(query)
            local = partials_of(nodes, parts, top_n, key)
            pool = [status for partial in local for status in partial.statuses]
            want = tuple(s.node_id for s in heapq.nsmallest(top_n, pool, key=key))
            routed = router.merge(query, local)
            assert routed.node_ids == want
            assert routed.pool == len(pool) and not routed.widened
            if factory is not coarse_factory:  # a total order: dealing cannot matter
                assert want == tuple(s.node_id for s in heapq.nsmallest(top_n, nodes, key=key))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.lists(st.integers(min_value=0, max_value=6), max_size=5), min_size=1, max_size=5),
    st.integers(min_value=0, max_value=8),
)
def test_property_merge_of_sorted_runs_keeps_nsmallest_tie_order(runs, top_n):
    """Scores only, many equal: the merge (the lone-partial shortcut
    included) must order equal keys the way ``nsmallest`` over the
    concatenation does — earlier partial first, then position within
    the partial."""
    rng = random.Random(0)
    template = node(0, rng)
    scores = {}
    local = []
    for shard, run in enumerate(runs):
        statuses = []
        for position, score in enumerate(sorted(run)):
            node_id = f"s{shard}p{position}"
            scores[node_id] = score
            statuses.append(replace(template, node_id=node_id))
        local.append(PartialSelection(shard=shard, count=len(statuses), statuses=tuple(statuses)))
    factory = lambda query: lambda status: scores[status.node_id]  # noqa: E731
    router = ShardRouter(ShardMap(count=8), GlobalSelectionPolicy(sort_key_factory=factory))
    query = DiscoveryQuery(user_id="u", lat=LAT, lon=LON, top_n=top_n)
    pool = [status for partial in local for status in partial.statuses]
    want = tuple(s.node_id for s in heapq.nsmallest(top_n, pool, key=factory(query)))
    assert router.merge(query, local).node_ids == want


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


def test_one_shard_answer_is_not_scored_again():
    rng = random.Random(9)
    nodes = [node(i, rng) for i in range(10)]
    calls = []

    def counting_factory(query):
        inner = availability_sort_key(query)

        def key(status):
            calls.append(status.node_id)
            return inner(status)

        return key

    router = ShardRouter(ShardMap(count=4), GlobalSelectionPolicy(sort_key_factory=counting_factory))
    query = DiscoveryQuery(user_id="u", lat=LAT, lon=LON, top_n=3)
    (partial,) = partials_of(nodes, 1, 3, availability_sort_key(query))
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
