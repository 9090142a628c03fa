"""Discovery-query throughput: spatial-index fast path vs linear scan.

Fills one ``GlobalSelectionMachine``'s registry (the Central Manager's
core) with N synthetic metro-scale heartbeats, then answers the same
batch of discovery queries two ways:

- **indexed** — ``policy.select(query, index=machine.spatial_index)``,
  the geohash-bucketed fast path every manager shard answers from.
- **linear** — ``policy.select(query, nodes=[...registry...])``, the
  pre-index full-registry scan (haversine against every node per
  query).

Every query's TopN answer is asserted bit-identical between the two
paths before timing, then both are timed and the speedup is written to
``BENCH_perf.json``.

The index remembers the geo cut of a query it has seen twice, so what a
timing means depends on whether its points are new. The
linear-vs-indexed ``speedup`` (and ``indexed_queries_per_s``) is **cold**:
every repeat draws fresh points, which the index has never cut.
``standing_queries_per_s`` is its own field: the parity batch asked again
and again, the way a stationary user re-discovers every probing period,
with the share of cuts answered from memory beside it.

Run:  PYTHONPATH=src python benchmarks/perf/bench_discovery.py --nodes 5000
"""

from __future__ import annotations

import argparse
import math
import random
import sys
import time
from pathlib import Path
from typing import List

from repro.geo.geohash import encode
from repro.geo.point import GeoPoint
from repro.geo.region import MSP_CENTER
from repro.messages import DiscoveryQuery, NodeStatus
from repro.metrics.bench import record_bench_section
from repro.policy.global_policy import (
    GeoProximityFilter,
    GlobalSelectionPolicy,
)
from repro.protocol.events import HeartbeatReceived
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


def build_machine(n_nodes: int, region_km: float, radius_km: float, seed: int):
    """A manager machine over N synthetic heartbeats in a metro-sized disc."""
    rng = random.Random(seed)
    # Wide fallback = the whole metro: "remote nodes ... useful as a
    # last resort" never live outside the region the fleet occupies.
    policy = GlobalSelectionPolicy(
        geo_filter=GeoProximityFilter(radius_km=radius_km, wide_radius_km=region_km * 2)
    )
    # Every stamp is 0.0 and nothing prunes: no entry ever expires.
    machine = GlobalSelectionMachine(policy, heartbeat_timeout=float("inf"))
    for i in range(n_nodes):
        point = random_point(rng, MSP_CENTER, region_km)
        status = synthetic_status(f"n{i:05d}", point, rng)
        machine.handle(HeartbeatReceived(stamp=0.0, status=status))
    return machine, rng


def make_queries(
    n_queries: int, region_km: float, top_n: int, rng: random.Random
) -> List[DiscoveryQuery]:
    queries = []
    for i in range(n_queries):
        point = random_point(rng, MSP_CENTER, region_km)
        queries.append(
            DiscoveryQuery(
                user_id=f"u{i:04d}", lat=point.lat, lon=point.lon, top_n=top_n
            )
        )
    return queries


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=5000)
    parser.add_argument("--queries", type=int, default=300)
    parser.add_argument("--repeat", type=int, default=3, help="timing repetitions; best is kept")
    # 80 km ~= the paper's "within 50 miles" emulation region (§V-D).
    parser.add_argument("--region-km", type=float, default=80.0, help="metro disc radius")
    parser.add_argument("--radius-km", type=float, default=4.0, help="discovery radius")
    parser.add_argument("--top-n", type=int, default=3, help="SystemConfig's default TopN")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--output", type=Path, default=Path(__file__).resolve().parents[2] / "BENCH_perf.json"
    )
    args = parser.parse_args(argv)

    machine, rng = build_machine(
        args.nodes, args.region_km, args.radius_km, args.seed
    )
    policy = machine.policy
    queries = make_queries(args.queries, args.region_km, args.top_n, rng)
    index = machine.spatial_index
    registry = machine.registry

    # Parity first: the indexed answer must be bit-identical to the scan.
    mismatches = 0
    for query in queries:
        indexed = policy.select(query, index=index)
        linear = policy.select(query, nodes=list(registry.values()))
        if indexed != linear:
            mismatches += 1
            print(f"PARITY MISMATCH for {query.user_id}: {indexed} != {linear}")
    if mismatches:
        print(f"FAILED: {mismatches}/{len(queries)} queries disagree")
        return 1

    def timed(run, batch: List[DiscoveryQuery]) -> float:
        t0 = time.perf_counter()
        for query in batch:
            run(query)
        return time.perf_counter() - t0

    def by_scan(query: DiscoveryQuery):
        return policy.select(query, nodes=list(registry.values()))

    def by_index(query: DiscoveryQuery):
        return policy.select(query, index=index)

    # Cold: fresh points per repeat, the same batch down both paths.
    linear_s = indexed_s = float("inf")
    for _ in range(args.repeat):
        fresh = make_queries(args.queries, args.region_km, args.top_n, rng)
        linear_s = min(linear_s, timed(by_scan, fresh))
        indexed_s = min(indexed_s, timed(by_index, fresh))
    # Standing: the parity pass was the first sight of `queries`, this
    # pass is the second (the cut is kept), the timed ones re-discover.
    timed(by_index, queries)
    remembered, computed = index.cuts_remembered, index.cuts_computed
    standing_s = min(timed(by_index, queries) for _ in range(args.repeat))
    remembered = index.cuts_remembered - remembered
    computed = index.cuts_computed - computed

    linear_qps = len(queries) / linear_s
    indexed_qps = len(queries) / indexed_s
    standing_qps = len(queries) / standing_s
    speedup = indexed_qps / linear_qps

    result = {
        "nodes": args.nodes,
        "queries": len(queries),
        "region_km": args.region_km,
        "discovery_radius_km": args.radius_km,
        "top_n": args.top_n,
        "seed": args.seed,
        "linear_queries_per_s": round(linear_qps, 1),
        "indexed_queries_per_s": round(indexed_qps, 1),
        "speedup": round(speedup, 2),
        "standing_queries_per_s": round(standing_qps, 1),
        "standing_cut_hit_rate": round(remembered / max(1, remembered + computed), 3),
        "parity": "identical",
    }
    record_bench_section(args.output, "discovery", result)

    print(f"nodes={args.nodes}  queries={len(queries)}  "
          f"radius={args.radius_km}km over {args.region_km}km region")
    print(f"  linear scan : {linear_qps:10.1f} queries/s")
    print(f"  spatial idx : {indexed_qps:10.1f} queries/s   (cold: points never seen)")
    print(f"  speedup     : {speedup:10.2f}x   (parity: identical)")
    print(f"  standing    : {standing_qps:10.1f} queries/s   "
          f"({remembered}/{remembered + computed} cuts from memory)")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
