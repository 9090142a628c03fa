"""Metro-scale kernel throughput: cohort batching + geohash sharding.

Three measurements, recorded as the ``metro`` section of BENCH_perf.json:

1. **Scale run** — the headline number: a population-scale metro
   (default 100k volunteer nodes, 1M AR users at 4 fps) stepped through
   the cohort-batched shard kernel, reporting ``wall_s_per_sim_s`` and
   sustained events/second. Probing is disabled by default at this
   scale (``--probing-period-ms``), matching how such a deployment
   would amortize re-selection.
2. **Cohort speedup** — :class:`MetroKernel` vs. its per-frame
   reference :class:`PerFrameKernel` on one population, at a matched
   (smaller) scale where one event per frame is still affordable; the
   acceptance bar is >= 5x.
3. **Parity** — at a reduced scale: the ``shards=1`` run is checked
   bit-identical (ordered trace-event equality) against stepping an
   unsharded :class:`MetroKernel` directly, and the requested shard
   count is checked deterministic across a repeat run.

Run:  PYTHONPATH=src python benchmarks/perf/bench_metro.py \
          --nodes 100000 --users 1000000 --fps 4 --sim-seconds 2
CI:   ... --nodes 5000 --users 10000 --shards 2 --check-parity \
          --assert-speedup 5.0
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import List, Optional, Tuple, Type

from repro.core.config import SystemConfig
from repro.metrics.bench import record_bench_section
from repro.metro import (
    MetroKernel,
    MetroReport,
    MetroSimulation,
    MetroSpec,
    ShardSpec,
    build_population,
)
from repro.metro.kernel import MetroShardReport
from repro.metro.reference import PerFrameKernel
from repro.obs.tracer import Tracer


def _run(
    spec: MetroSpec, config: SystemConfig, sim_seconds: float, *,
    capture_trace: bool = False,
) -> MetroReport:
    sim = MetroSimulation(spec, config, capture_trace=capture_trace)
    return sim.run(sim_seconds)


def measure_scale(args: argparse.Namespace) -> Tuple[MetroReport, dict]:
    spec = MetroSpec(
        nodes=args.nodes,
        users=args.users,
        region_km=args.region_km,
        fps=args.fps,
        shard=ShardSpec(count=args.shards, workers=args.workers),
    )
    config = SystemConfig(
        seed=args.seed, probing_period_ms=args.probing_period_ms
    )
    report = _run(spec, config, args.sim_seconds)
    payload = {
        "nodes": args.nodes,
        "users": args.users,
        "fps": args.fps,
        "shards": args.shards,
        "workers": args.workers,
        "region_km": args.region_km,
        "sim_seconds": args.sim_seconds,
        "seed": args.seed,
        "probing_period_ms": args.probing_period_ms,
        "frames_done": report.frames_done,
        "frames_lost": report.frames_lost,
        "events_processed": report.events_processed,
        "events_per_wall_s": round(report.events_per_wall_s, 1),
        "wall_s": round(report.wall_s, 3),
        "wall_s_per_sim_s": round(report.wall_s_per_sim_s, 4),
        "mean_latency_ms": round(report.mean_latency_ms, 3),
    }
    return report, payload


def measure_cohort_speedup(args: argparse.Namespace) -> dict:
    """The cohort kernel vs. its per-frame reference on one population,
    at a matched, affordable scale; each timing spans kernel build + run."""
    spec = MetroSpec(
        nodes=args.compare_nodes,
        users=args.compare_users,
        region_km=args.region_km,
        fps=10.0,
    )
    config = SystemConfig(seed=args.seed, probing_period_ms=args.probing_period_ms)
    population = build_population(spec, config.seed)

    def timed(kernel_cls: Type[MetroKernel]) -> Tuple[MetroShardReport, float]:
        started = time.perf_counter()
        report = kernel_cls(config, spec, population).run(args.compare_sim_seconds)
        return report, time.perf_counter() - started

    batched, batched_wall = timed(MetroKernel)
    per_client, per_client_wall = timed(PerFrameKernel)
    if batched.frames_done != per_client.frames_done or (
        batched.frames_lost != per_client.frames_lost
    ):
        raise AssertionError(
            "cohort-batched and per-client runs diverged: "
            f"frames {batched.frames_done}/{batched.frames_lost} vs "
            f"{per_client.frames_done}/{per_client.frames_lost}"
        )
    speedup = per_client_wall / batched_wall
    return {
        "nodes": args.compare_nodes,
        "users": args.compare_users,
        "sim_seconds": args.compare_sim_seconds,
        "batched_wall_s": round(batched_wall, 3),
        "per_client_wall_s": round(per_client_wall, 3),
        "speedup": round(speedup, 1),
    }


def check_parity(args: argparse.Namespace) -> dict:
    """shards=1 bit-identity vs. the raw kernel + shard determinism."""
    nodes = min(args.nodes, 2_000)
    users = min(args.users, 5_000)
    sim_seconds = 5.0
    spec = MetroSpec(nodes=nodes, users=users, region_km=args.region_km,
                     fps=10.0)
    config = SystemConfig(seed=args.seed)

    # (a) shards=1 through MetroSimulation == unsharded MetroKernel.
    sharded = _run(spec, config, sim_seconds, capture_trace=True)
    population = build_population(spec, config.seed)
    kernel = MetroKernel(
        config, spec, population, shard_id="shard0",
        tracer=Tracer(enabled=True, capacity=1 << 20),
    )
    direct = kernel.run(sim_seconds)
    a = [e.to_dict() for e in sharded.trace_events]
    b = [e.to_dict() for e in direct.trace_events]
    if a != b:
        raise AssertionError(
            f"shards=1 is not bit-identical to the unsharded kernel "
            f"({len(a)} vs {len(b)} events)"
        )

    # (b) the requested shard count is deterministic for a fixed seed.
    sharded_spec = replace(
        spec, shard=ShardSpec(count=args.shards, workers=args.workers)
    )
    first = _run(sharded_spec, config, sim_seconds, capture_trace=True)
    second = _run(sharded_spec, config, sim_seconds, capture_trace=True)
    first_events = sorted(
        tuple(sorted(e.to_dict().items())) for e in first.trace_events
    )
    second_events = sorted(
        tuple(sorted(e.to_dict().items())) for e in second.trace_events
    )
    if first_events != second_events:
        raise AssertionError(
            f"shards={args.shards} is not deterministic across repeats"
        )
    return {
        "nodes": nodes,
        "users": users,
        "sim_seconds": sim_seconds,
        "events_compared": len(a),
        "single_shard_bit_identical": True,
        "sharded_deterministic": True,
        "shards_checked": args.shards,
        "handoffs": first.handoffs,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=100_000)
    parser.add_argument("--users", type=int, default=1_000_000)
    parser.add_argument("--fps", type=float, default=4.0)
    parser.add_argument("--sim-seconds", type=float, default=2.0)
    parser.add_argument("--region-km", type=float, default=40.0)
    parser.add_argument("--shards", type=int, default=1)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--probing-period-ms", type=float, default=3_600_000.0,
        help="re-selection probing period; the default effectively "
             "disables per-user probing, which python cannot sustain "
             "at 10^6 users",
    )
    parser.add_argument("--compare-nodes", type=int, default=1_000)
    parser.add_argument("--compare-users", type=int, default=20_000)
    parser.add_argument("--compare-sim-seconds", type=float, default=10.0)
    parser.add_argument("--skip-compare", action="store_true",
                        help="skip the cohort-vs-per-frame comparison")
    parser.add_argument("--check-parity", action="store_true",
                        help="verify shards=1 bit-identity and shard "
                             "determinism at a reduced scale")
    parser.add_argument("--assert-speedup", type=float, default=None,
                        metavar="MIN", help="fail unless the cohort "
                        "speedup is at least MIN (CI gate)")
    parser.add_argument(
        "--output", type=Path,
        default=Path(__file__).resolve().parents[2] / "BENCH_perf.json",
    )
    args = parser.parse_args(argv)

    started = time.perf_counter()
    report, payload = measure_scale(args)
    print(f"scale: nodes={args.nodes}  users={args.users}  fps={args.fps}  "
          f"shards={args.shards}  workers={args.workers}")
    print(f"  frames done : {report.frames_done}")
    print(f"  events      : {report.events_processed}")
    print(f"  throughput  : {report.events_per_wall_s:12.1f} events/wall-s")
    print(f"  cost        : {report.wall_s_per_sim_s:12.4f} wall-s per "
          f"simulated second")

    if not args.skip_compare:
        compare = measure_cohort_speedup(args)
        payload["cohort_speedup"] = compare
        print(f"cohort speedup ({compare['nodes']} nodes, "
              f"{compare['users']} users, {compare['sim_seconds']:.0f} sim-s):")
        print(f"  batched     : {compare['batched_wall_s']:10.3f} wall-s")
        print(f"  per-client  : {compare['per_client_wall_s']:10.3f} wall-s")
        print(f"  speedup     : {compare['speedup']:10.1f}x")
        if args.assert_speedup is not None and (
            compare["speedup"] < args.assert_speedup
        ):
            print(f"FAIL: speedup {compare['speedup']}x < "
                  f"{args.assert_speedup}x")
            return 1
    elif args.assert_speedup is not None:
        print("FAIL: --assert-speedup requires the comparison "
              "(drop --skip-compare)")
        return 1

    if args.check_parity:
        parity = check_parity(args)
        payload["parity"] = parity
        print(f"parity: shards=1 bit-identical over "
              f"{parity['events_compared']} events; shards="
              f"{parity['shards_checked']} deterministic "
              f"({parity['handoffs']} handoffs)")

    payload["bench_wall_s"] = round(time.perf_counter() - started, 1)
    record_bench_section(args.output, "metro", payload)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
