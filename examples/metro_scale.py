"""Metro scale: 5 000 volunteer nodes, 20 000 AR users, two shards.

The per-endpoint kernel in :mod:`repro.core` models every probe, frame
and heartbeat — perfect fidelity, but a python event loop tops out far
below metro scale. The :mod:`repro.metro` kernel trades per-message
fidelity for a tick-quantized control plane and cohort-batched frame
advancement, which is how the same selection/failover story runs at
10^5 nodes and 10^6 users (see DESIGN.md §11 for the contract and
BENCH_perf.json's ``metro`` section for the measured cost).

This example describes the metro as a :class:`~repro.metro.MetroSpec`
(node and user counts, region, frame rate, and — in its ``shard``
field, the only place a partition is set — two geohash shards), runs it
with :class:`~repro.metro.MetroSimulation`, kills a node mid-run, and
prints the aggregate outcome.

Run:  PYTHONPATH=src python examples/metro_scale.py
"""

from repro.core.config import SystemConfig
from repro.metro import MetroSimulation, MetroSpec, ShardSpec


def main() -> None:
    spec = MetroSpec(
        nodes=5_000,
        users=20_000,
        region_km=40.0,
        fps=10.0,
        shard=ShardSpec(count=2),
    )
    sim = MetroSimulation(spec, SystemConfig(seed=11))

    # Kill node n17 three seconds in: its users detect the silence and
    # fail over, covered by their cached backup candidates.
    sim.schedule_node_fail(17, at_ms=3_000.0)

    report = sim.run(sim_seconds=10.0)

    print(f"metro run: {report.spec_nodes} nodes, {report.spec_users} users, "
          f"{report.shards} shards, {report.sim_seconds:.0f} simulated s")
    print(f"  frames done        : {report.frames_done}")
    print(f"  frames lost        : {report.frames_lost}")
    print(f"  mean latency       : {report.mean_latency_ms:.1f} ms")
    print(f"  switches           : {report.switches}")
    print(f"  covered failovers  : {report.covered_failovers}")
    print(f"  uncovered failures : {report.uncovered_failures}")
    print(f"  shard handoffs     : {report.handoffs}")
    print(f"  events/wall-s      : {report.events_per_wall_s:,.0f}")
    print(f"  wall-s per sim-s   : {report.wall_s_per_sim_s:.3f}")


if __name__ == "__main__":
    main()
