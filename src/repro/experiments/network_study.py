"""Fig. 1 — network measurements: volunteers vs Local Zone vs cloud.

The paper's Fig. 1 shows RTTs measured from 15 home-WiFi participants in
the Minneapolis-Saint Paul metro to (1) five volunteer edge nodes,
(2) AWS Local Zone us-east-1-msp, (3) the closest cloud region
(us-east-2), and finds the volunteer nodes deliver the lowest propagation
delay. This experiment reproduces the measurement campaign over the
calibrated distance/tier RTT model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.config import SystemConfig
from repro.core.system import EdgeSystem
from repro.experiments.scenario import real_world
from repro.metrics.report import Table
from repro.metrics.stats import Summary, summarize
from repro.net.latency import NetworkTier


@dataclass
class NetworkStudyResult:
    """RTT samples per target class, from all users."""

    samples: Dict[str, List[float]]  # class name -> RTT samples (ms)

    def summaries(self) -> Dict[str, Summary]:
        return {name: summarize(values) for name, values in self.samples.items()}

    def table(self) -> Table:
        return (
            "Fig. 1 — RTT (ms) from metro users",
            ["target class", "mean", "p50", "p90", "min", "max"],
            [
                [name, s.mean_ms, s.p50_ms, s.p90_ms, s.min_ms, s.max_ms]
                for name, s in self.summaries().items()
            ],
        )


def run_network_study(
    config: SystemConfig = SystemConfig(),
    *,
    n_users: int = 15,
    probes_per_pair: int = 20,
) -> NetworkStudyResult:
    """Measure RTT from every user to every target class.

    Returns samples grouped as the paper's three x-axis groups:
    ``volunteer`` (5 nodes), ``local_zone`` (one D instance stands in for
    the Local Zone endpoint), ``cloud``.
    """
    if probes_per_pair < 1:
        raise ValueError(f"probes_per_pair must be >= 1: {probes_per_pair}")
    world = real_world(config.seed, n_users=n_users)
    topology = EdgeSystem(config, world=world).topology

    groups = {
        "volunteer": world.node_ids_on(NetworkTier.HOME_WIFI),
        "local_zone": world.node_ids_on(NetworkTier.LOCAL_ZONE)[:1],
        "cloud": world.node_ids_on(NetworkTier.CLOUD),
    }
    samples: Dict[str, List[float]] = {name: [] for name in groups}
    for user_id in world.user_ids:
        for group, node_ids in groups.items():
            for node_id in node_ids:
                for _ in range(probes_per_pair):
                    samples[group].append(topology.rtt_ms(user_id, node_id))
    return NetworkStudyResult(samples=samples)
