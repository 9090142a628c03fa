"""The paper's real-world deployment, end to end.

Recreates §V-C: 15 home-WiFi users in the Minneapolis-Saint Paul metro,
5 volunteer laptops (Table II V1-V5), 4 AWS Local Zone instances
(D6-D9) and the regional cloud, all serving the AR cognitive-assistance
workload (0.02 MB frames at up to 20 FPS). Users join one by one; the
script reports the assignment the client-centric selection converged to
and each user's latency.

Run:  python examples/ar_cognitive_assistance.py
"""

from collections import Counter

from repro import EdgeClient, EdgeSystem, SystemConfig
from repro.experiments.scenario import real_world
from repro.metrics.stats import summarize


def main() -> None:
    config = SystemConfig(top_n=3, seed=42)
    world = real_world(config.seed, n_users=15)
    system = EdgeSystem(config, world=world)

    print(f"Edge fleet: {', '.join(world.node_ids)}")
    for i, user_id in enumerate(world.user_ids):
        client = EdgeClient(system, user_id)
        system.clients[user_id] = client
        system.sim.schedule(i * 2_000.0, client.start)  # staggered joins

    system.run_for(70_000)

    print("\nSteady state after 70 s:")
    assignment = Counter()
    for user_id, client in system.clients.items():
        assignment[client.current_edge] += 1
        mean = client.stats.mean_latency_ms
        print(
            f"  {user_id} -> {str(client.current_edge):6s}"
            f"  mean {mean:6.1f} ms, {client.stats.frames_completed} frames"
        )

    print("\nUsers per node:", dict(assignment))
    window = system.metrics.completed_latencies(start_ms=40_000)
    print("Last-30s latency distribution:", summarize(window))


if __name__ == "__main__":
    main()
