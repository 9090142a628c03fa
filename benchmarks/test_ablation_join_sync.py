"""Ablation — seqNum join synchronization on vs off.

Algorithm 1 rejects joins whose probed ``seqNum`` went stale, which
serializes simultaneous selections of one node. With synchronization
disabled, concurrent joiners all land on the same momentarily-cheap node
(the thundering herd the paper designs against). The effect shows up in
simultaneous-arrival bursts: we start all 15 users at once.
"""

from repro.core.client import EdgeClient
from repro.core.config import SystemConfig
from repro.core.system import EdgeSystem
from repro.experiments.scenario import real_world
from repro.metrics.report import format_table
from repro.metrics.stats import mean, stddev


def run_burst(config):
    world = real_world(config.seed, n_users=15, include_cloud=False)
    system = EdgeSystem(config, world=world)
    for user_id in world.user_ids:
        client = EdgeClient(system, user_id)
        system.clients[user_id] = client
        client.start()  # everyone joins at t=0: maximal collision
    system.run_for(40_000.0)
    per_user = system.metrics.per_user_mean_latency(25_000.0, 40_000.0)
    rejects = sum(c.stats.joins_rejected for c in system.clients.values())
    peak_node_users = max(
        len(node.attached) for node in system.nodes.values()
    )
    return {
        "avg": mean(list(per_user.values())),
        "std": stddev(list(per_user.values())),
        "rejects": rejects,
        "peak_node_users": peak_node_users,
    }


def run_both(seed):
    synced = run_burst(SystemConfig(seed=seed, join_synchronization=True))
    unsynced = run_burst(SystemConfig(seed=seed, join_synchronization=False))
    return synced, unsynced


def test_ablation_join_sync():
    synced, unsynced = run_both(seed=42)

    print()
    print(
        format_table(
            ["variant", "avg ms", "fairness std", "join rejects", "peak users/node"],
            [
                ["seqNum sync (paper)", synced["avg"], synced["std"],
                 synced["rejects"], synced["peak_node_users"]],
                ["sync disabled", unsynced["avg"], unsynced["std"],
                 unsynced["rejects"], unsynced["peak_node_users"]],
            ],
            title="Ablation — join synchronization under simultaneous arrivals",
        )
    )

    # The mechanism must actually engage under a burst...
    assert synced["rejects"] > 0
    assert unsynced["rejects"] == 0
    # ...and synchronized admission must not hurt the outcome.
    assert synced["avg"] <= unsynced["avg"] * 1.10
