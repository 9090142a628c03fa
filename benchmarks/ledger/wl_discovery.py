"""``cp_discovery``: in-process discovery over a metro-density registry.

No sockets. The same synthetic heartbeats fill one
``GlobalSelectionMachine`` (the single-manager reference) and a 16-shard
``ShardMap`` + ``ShardRouter``; every window sends the same interleaved
heartbeat refreshes and queries down both paths and compares the
answers. The operation is a query or a heartbeat on the sharded path;
pure index + scoring cost at the node density (≈5 nodes/km², ≈250 nodes
inside the 4 km radius) where BENCH_perf.json records ~600 queries/s.
"""

from __future__ import annotations

import math
import random
import zlib
from dataclasses import replace
from time import perf_counter
from typing import Any, Dict, List, Tuple

from repro.controlplane.router import PartialSelection, ShardRouter
from repro.controlplane.sharding import ShardMap
from repro.core.messages import DiscoveryQuery, NodeStatus
from repro.core.policies.global_policies import GeoProximityFilter, GlobalSelectionPolicy
from repro.geo.geohash import encode
from repro.geo.region import MSP_CENTER, MetroArea
from repro.protocol.events import (
    DiscoveryRequested,
    HeartbeatReceived,
    PartialDiscoveryRequested,
)
from repro.protocol.global_select import GlobalSelectionMachine

from harness import Run, Slice, Timed, Workload, percentile

SHARDS = 16
RADIUS_KM = 4.0
TOP_N = 3
#: bench_discovery_sharded's density: 100 000 nodes over an 80 km disc.
NODES_PER_KM2 = 100_000 / (math.pi * 80.0 ** 2)


def synthetic_status(node_id: str, area: MetroArea, rng: random.Random) -> NodeStatus:
    point = area.sample()
    return NodeStatus(
        node_id=node_id,
        lat=point.lat,
        lon=point.lon,
        geohash=encode(point.lat, point.lon, precision=9),
        cores=rng.choice((2, 4, 6, 8, 16)),
        capacity_fps=rng.uniform(5.0, 60.0),
        attached_users=rng.randrange(0, 5),
        utilization=rng.random(),
    )


class CpDiscovery(Workload):
    name = "cp_discovery"

    def __init__(self, seed, smoke, recorder) -> None:
        super().__init__(seed, smoke, recorder)
        self.nodes = 2_000 if smoke else 25_000
        self.region_km = math.sqrt(self.nodes / NODES_PER_KM2 / math.pi)
        self.per_window = 20 if smoke else 50
        self.windows_per_round = 2 if smoke else 8
        self.sizes = {
            "nodes": self.nodes, "region_km": round(self.region_km, 2),
            "radius_km": RADIUS_KM, "top_n": TOP_N, "shards": SHARDS,
            "queries_per_round": self.per_window * self.windows_per_round,
            "heartbeats_per_query": 1,
            "loop": "closed: one caller, next request after the previous answer",
        }
        self._window = 0
        self._answers: List[Tuple] = []
        # plain-round samples for the figures reported beside the metrics
        self.query_s: List[float] = []
        self.single_query_s = 0.0
        self.single_queries = 0
        self.heartbeat_s = 0.0
        self.heartbeats = 0
        # spans-round counters
        self._local_nodes = 0      # in-radius nodes counted by local-phase fetches
        self._partial_nodes = 0    # ... by every fetch
        self._fanout: List[int] = []
        self._widened = 0

    def setup(self, variant: str = "plain") -> None:
        rng = random.Random(self.seed)
        area = MetroArea(MSP_CENTER, self.region_km, rng)
        policy = GlobalSelectionPolicy(
            geo_filter=GeoProximityFilter(
                radius_km=RADIUS_KM, wide_radius_km=self.region_km * 2
            )
        )
        statuses = [
            synthetic_status(f"n{i:06d}", area, rng) for i in range(self.nodes)
        ]
        self.single = GlobalSelectionMachine(policy, heartbeat_timeout=float("inf"))
        self.router = ShardRouter(ShardMap(count=SHARDS), policy)
        self.machines = [
            GlobalSelectionMachine(policy, heartbeat_timeout=float("inf"))
            for _ in range(SHARDS)
        ]
        for status in statuses:
            beat = HeartbeatReceived(stamp=0.0, status=status)
            self.single.handle(beat)
            self.machines[self.router.owner_of(status)].handle(beat)
        # One round's script: (heartbeat refresh, query) pairs. Refreshes
        # overwrite with fixed values, so every round after the warm-up
        # starts from, and reproduces, the same registry.
        self.script = []
        for i in range(self.per_window * self.windows_per_round):
            old = statuses[rng.randrange(self.nodes)]
            refresh = replace(old, utilization=rng.random(),
                              attached_users=rng.randrange(0, 5))
            point = area.sample()
            query = DiscoveryQuery(user_id=f"u{i:04d}", lat=point.lat,
                                   lon=point.lon, top_n=TOP_N)
            self.script.append((HeartbeatReceived(stamp=0.0, status=refresh), query))

    def begin_round(self, variant: str) -> None:
        self._window = 0
        self._answers = []
        rec = self.recorder
        if rec is None:
            return
        rec.unwrap_all()
        if variant == "spans":
            rec.round += 1
            rec.wrap(ShardRouter, "plan", "controlplane.router.plan")
            rec.wrap(ShardRouter, "merge", "controlplane.router.merge")
            rec.wrap(GlobalSelectionMachine, "handle", "protocol.global_select.handle",
                     key=lambda machine, event: type(event).__name__)

    def window(self, variant: str) -> Slice:
        chunk = self.script[self._window * self.per_window:][: self.per_window]
        self._window += 1
        router, machines = self.router, self.machines
        counts: List[Tuple[float, int]] = []   # (radius, in-radius nodes) per fetch

        def fetch(shard: int, radius_km: float) -> PartialSelection:
            (reply,) = machines[shard].handle(
                PartialDiscoveryRequested(now=0.0, stamp=0.0, query=self._query,
                                          radius_km=radius_km)
            )
            counts.append((radius_km, reply.count))
            return PartialSelection(shard=shard, count=reply.count,
                                    statuses=reply.statuses)

        routed, stamps = [], []
        with Timed() as t:
            for beat, query in chunk:
                t0 = perf_counter()
                machines[router.owner_of(beat.status)].handle(beat)
                t1 = perf_counter()
                self._query = query
                routed.append(router.select(query, fetch))
                stamps.append((t0, t1, perf_counter()))
        expected, single_s = [], 0.0
        if self.recorder is not None:
            self.recorder.paused = True  # the reference pass is nobody's layer cost
        for beat, query in chunk:
            self.single.handle(beat)
            q0 = perf_counter()
            (reply,) = self.single.handle(
                DiscoveryRequested(now=0.0, stamp=0.0, query=query)
            )
            single_s += perf_counter() - q0
            expected.append((reply.node_ids, reply.widened))
        if self.recorder is not None:
            self.recorder.paused = False
        failed = 0
        for got, want in zip(routed, expected):
            answer = (got.node_ids, got.widened)
            self._answers.append(answer)
            if answer != want or not got.node_ids:
                failed += 1
        if variant == "plain":
            self.query_s.extend(t2 - t1 for _, t1, t2 in stamps)
            self.heartbeat_s += sum(t1 - t0 for t0, t1, _ in stamps)
            self.heartbeats += len(chunk)
            self.single_query_s += single_s
            self.single_queries += len(chunk)
        elif variant == "spans":
            self._partial_nodes += sum(count for _, count in counts)
            self._local_nodes += sum(count for radius, count in counts if radius == RADIUS_KM)
            for got in routed:
                self._fanout.append(len(got.shards_queried))
                self._widened += got.widened
        return Slice(2 * len(chunk), failed, t.cpu_s, t.wall_s)

    def end_round(self, variant: str) -> Dict[str, Any]:
        return {"answers": len(self._answers),
                "crc32": zlib.crc32(repr(self._answers).encode())}

    def layer_metrics(self, run: Run) -> Dict[str, float]:
        rec = self.recorder
        handle = "protocol.global_select.handle"
        partial = rec.total(handle, "PartialDiscoveryRequested")
        queries = max(1, len(self._fanout))
        return {
            "geo.in_radius_per_query": self._local_nodes / queries,
            "geo.us_per_in_radius_node": partial.total_s / max(1, self._partial_nodes) * 1e6,
            "controlplane.widened_share": self._widened / queries,
            "controlplane.router.plan_us": rec.total("controlplane.router.plan").self_us_per_call,
            "controlplane.router.merge_us": rec.total("controlplane.router.merge").self_us_per_call,
            "controlplane.fanout_mean": sum(self._fanout) / queries,
            "controlplane.cross_shard_share": sum(f > 1 for f in self._fanout) / queries,
            "protocol.global_select.partial_us": partial.us_per_call,
            "protocol.global_select.heartbeat_us":
                rec.total(handle, "HeartbeatReceived").us_per_call,
            **rec.calls_and_self_us((handle,), run.count("spans")),
            "discover_qps": len(self.query_s) / sum(self.query_s),
            "discover_qps_single": self.single_queries / self.single_query_s,
            "discover_p99_ms": percentile(self.query_s, 0.99) * 1e3,
            "heartbeat_per_s": self.heartbeats / self.heartbeat_s,
            "ledger.unattributed_share": run.unattributed_share(rec.covered_s),
        }
