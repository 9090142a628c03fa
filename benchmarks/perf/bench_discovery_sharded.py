"""Sharded discovery throughput: routed fan-out + cross-shard TopN merge.

Fills ``shards`` partitioned :class:`GlobalSelectionMachine` registries
with N synthetic metro-scale heartbeats (ownership by geohash range,
exactly the control plane's shard map), then answers the same batch of
discovery queries through the :class:`ShardRouter` at each shard count.

Every routed answer is held bit-identical to a single-manager
reference (the control plane's determinism contract): the parity batch
before timing (cold cuts), and the timed repeats' answers after timing
(stored and memo-served cuts, memoised plans and key distances). A
mismatch exits 1. The timed phase records, per shard count:

- ``queries_per_s`` — full routed selections (plan, fan-out, merge).
  The repeats re-ask the parity batch and the best is kept, so since the
  shards' indexes remember a geo cut seen twice this is the
  *standing-query* rate (stationary users re-discovering); the cold
  rate is ``bench_discovery.py``'s ``indexed_queries_per_s``;
- ``cross_shard_fraction`` — queries whose covering cells straddled a
  shard boundary (fan-out > 1);
- ``merge_overhead_fraction`` — time spent outside the per-shard
  fetches (planning + widening decision + global merge), the price of
  the distributed cut.

Run:  PYTHONPATH=src python benchmarks/perf/bench_discovery_sharded.py --nodes 100000
"""

from __future__ import annotations

import argparse
import math
import random
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

from repro.controlplane.router import PartialSelection, RoutedSelection, ShardRouter
from repro.controlplane.sharding import DEFAULT_SHARD_PRECISION, ShardMap
from repro.geo.geohash import encode
from repro.geo.point import GeoPoint
from repro.geo.region import MSP_CENTER
from repro.messages import DiscoveryQuery, NodeStatus
from repro.metrics.bench import record_bench_section
from repro.policy.global_policy import (
    GeoProximityFilter,
    GlobalSelectionPolicy,
)
from repro.protocol.effects import ReplyPartialCandidates
from repro.protocol.events import (
    DiscoveryRequested,
    HeartbeatReceived,
    PartialDiscoveryRequested,
)
from repro.protocol.global_select import GlobalSelectionMachine


def random_point(rng: random.Random, center: GeoPoint, radius_km: float) -> GeoPoint:
    distance = radius_km * math.sqrt(rng.random())
    bearing = rng.uniform(0.0, 2.0 * math.pi)
    return center.offset_km(
        distance * math.cos(bearing), distance * math.sin(bearing)
    )


def synthetic_status(node_id: str, point: GeoPoint, rng: random.Random) -> NodeStatus:
    return NodeStatus(
        node_id=node_id,
        lat=point.lat,
        lon=point.lon,
        geohash=encode(point.lat, point.lon, precision=9),
        cores=rng.choice((2, 4, 6, 8, 16)),
        capacity_fps=rng.uniform(5.0, 60.0),
        attached_users=rng.randrange(0, 5),
        utilization=rng.random(),
        reported_at_ms=0.0,
    )


def build_population(
    n_nodes: int, region_km: float, seed: int
) -> Tuple[List[NodeStatus], random.Random]:
    rng = random.Random(seed)
    statuses = [
        synthetic_status(f"n{i:06d}", random_point(rng, MSP_CENTER, region_km), rng)
        for i in range(n_nodes)
    ]
    return statuses, rng


def build_shards(
    statuses: List[NodeStatus],
    shards: int,
    policy: GlobalSelectionPolicy,
) -> Tuple[ShardRouter, List[GlobalSelectionMachine]]:
    """Partition the population into per-shard machines by ownership."""
    shard_map = ShardMap(count=shards, precision=DEFAULT_SHARD_PRECISION)
    router = ShardRouter(shard_map, policy)
    machines = [
        GlobalSelectionMachine(policy, heartbeat_timeout=float("inf"))
        for _ in range(shards)
    ]
    for status in statuses:
        machines[router.owner_of(status)].handle(
            HeartbeatReceived(stamp=0.0, status=status)
        )
    return router, machines


def make_queries(
    n_queries: int, region_km: float, top_n: int, rng: random.Random
) -> List[DiscoveryQuery]:
    return [
        DiscoveryQuery(
            user_id=f"u{i:04d}",
            lat=(p := random_point(rng, MSP_CENTER, region_km)).lat,
            lon=p.lon,
            top_n=top_n,
        )
        for i in range(n_queries)
    ]


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=100_000)
    parser.add_argument("--queries", type=int, default=200)
    parser.add_argument("--repeat", type=int, default=3, help="timing repetitions; best is kept")
    parser.add_argument("--shards", type=int, nargs="+", default=[1, 4, 16])
    parser.add_argument("--region-km", type=float, default=80.0, help="metro disc radius")
    parser.add_argument("--radius-km", type=float, default=4.0, help="discovery radius")
    parser.add_argument("--top-n", type=int, default=3)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--output", type=Path, default=Path(__file__).resolve().parents[2] / "BENCH_perf.json"
    )
    args = parser.parse_args(argv)

    policy = GlobalSelectionPolicy(
        geo_filter=GeoProximityFilter(
            radius_km=args.radius_km, wide_radius_km=args.region_km * 2
        )
    )
    statuses, rng = build_population(args.nodes, args.region_km, args.seed)
    queries = make_queries(args.queries, args.region_km, args.top_n, rng)

    # The single-manager reference every shard count must match.
    reference = GlobalSelectionMachine(policy, heartbeat_timeout=float("inf"))
    for status in statuses:
        reference.handle(HeartbeatReceived(stamp=0.0, status=status))
    expected = []
    for query in queries:
        (reply,) = reference.handle(
            DiscoveryRequested(now=0.0, stamp=0.0, query=query)
        )
        expected.append((reply.node_ids, reply.widened))

    per_shards: Dict[str, Dict[str, object]] = {}
    for shards in args.shards:
        router, machines = build_shards(statuses, shards, policy)
        fetch_clock = [0.0]
        current: List[DiscoveryQuery] = [queries[0]]

        def fetch(shard: int, radius_km: float) -> PartialSelection:
            t0 = time.perf_counter()
            (reply,) = machines[shard].handle(
                PartialDiscoveryRequested(
                    now=0.0, stamp=0.0, query=current[0], radius_km=radius_km
                )
            )
            fetch_clock[0] += time.perf_counter() - t0
            assert isinstance(reply, ReplyPartialCandidates)
            return PartialSelection(
                shard=shard, count=reply.count, statuses=reply.statuses
            )

        def mismatches(answers: List[RoutedSelection], ask: str) -> int:
            """Answers that differ from the single manager's, printed."""
            wrong = 0
            for query, routed, (want_ids, want_widened) in zip(queries, answers, expected):
                if routed.node_ids != want_ids or routed.widened != want_widened:
                    wrong += 1
                    print(
                        f"PARITY MISMATCH shards={shards} {ask} {query.user_id}: "
                        f"{routed.node_ids} != {want_ids}"
                    )
            if wrong:
                print(f"FAILED: {wrong}/{len(queries)} queries disagree ({ask})")
            return wrong

        # Parity first: bit-identical to the single manager, per query.
        answers = []
        for query in queries:
            current[0] = query
            answers.append(router.select(query, fetch))
        if mismatches(answers, "cold"):
            return 1
        cross_shard = sum(routed.cross_shard for routed in answers)

        best_s = float("inf")
        best_fetch_s = 0.0
        repeats: List[List[RoutedSelection]] = []
        for _ in range(args.repeat):
            fetch_clock[0] = 0.0
            answers = []
            t0 = time.perf_counter()
            for query in queries:
                current[0] = query
                answers.append(router.select(query, fetch))
            elapsed = time.perf_counter() - t0
            repeats.append(answers)
            if elapsed < best_s:
                best_s = elapsed
                best_fetch_s = fetch_clock[0]
        # ... and the timed answers after timing, repeat by repeat.
        if any(mismatches(answers, f"repeat {i + 1}") for i, answers in enumerate(repeats)):
            return 1

        qps = len(queries) / best_s
        overhead = max(0.0, (best_s - best_fetch_s) / best_s)
        per_shards[str(shards)] = {
            "queries_per_s": round(qps, 1),
            "cross_shard_fraction": round(cross_shard / len(queries), 4),
            "merge_overhead_fraction": round(overhead, 4),
        }
        print(
            f"shards={shards:3d}: {qps:10.1f} queries/s  "
            f"cross-shard {cross_shard / len(queries):6.1%}  "
            f"merge overhead {overhead:6.1%}"
        )

    result = {
        "nodes": args.nodes,
        "queries": len(queries),
        "region_km": args.region_km,
        "discovery_radius_km": args.radius_km,
        "top_n": args.top_n,
        "seed": args.seed,
        "shard_precision": DEFAULT_SHARD_PRECISION,
        "parity": "identical",
        "per_shards": per_shards,
    }
    record_bench_section(args.output, "controlplane", result)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
