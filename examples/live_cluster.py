"""The protocol over real sockets: a live localhost cluster.

Starts an actual Central Manager and five edge servers (Table II
volunteer hardware, time-scaled) as asyncio TCP services, connects two
clients, runs discovery -> probing -> join -> offloading, then kills the
busiest edge to demonstrate the instant backup switch.

Run:  python examples/live_cluster.py
"""

import asyncio

from repro.nodes.hardware import VOLUNTEER_PROFILES
from repro.runtime import LocalCluster
from repro.world import sampled_world


async def main() -> None:
    world = sampled_world(VOLUNTEER_PROFILES, n_clients=2, seed=3)
    cluster = LocalCluster(world, time_scale=0.05)
    await cluster.start()
    print(f"Manager listening on {cluster.manager_address()}")
    print(f"Edges: {[e.node_id for e in cluster.edges]}\n")
    try:
        for client in cluster.clients:
            chosen = await client.select_and_join()
            latencies = []
            for _ in range(10):
                latency = await client.offload_frame()
                if latency is not None:
                    latencies.append(latency)
            print(
                f"{client.user_id}: joined {chosen}, backups {client.backups}, "
                f"mean frame latency {sum(latencies) / len(latencies):.1f} ms "
                f"(wall-clock, time-scaled)"
            )

        victim = cluster.clients[0].current_edge
        assert victim is not None
        print(f"\nKilling {victim} (volunteer leaves without notification)...")
        await cluster.kill_edge(victim)
        lost = await cluster.clients[0].offload_frame()  # detects the break
        recovered = await cluster.clients[0].offload_frame()
        print(
            f"{cluster.clients[0].user_id}: frame during failure lost={lost is None}, "
            f"now attached to {cluster.clients[0].current_edge}, "
            f"next frame {recovered:.1f} ms"
        )
    finally:
        await cluster.stop()


if __name__ == "__main__":
    asyncio.run(main())
