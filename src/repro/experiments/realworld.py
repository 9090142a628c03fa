"""Real-world experiments (§V-C): Fig. 3, Table III, Fig. 4, Fig. 5.

All builders run fresh, seeded simulations of the Table II deployment.
Runs that the paper conducted "separately ... to avoid interference"
(the Fig. 3 CDFs and the Table III pairwise matrix) are likewise
separate simulations per (user, node) pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Type

from repro.baselines.dedicated_only import dedicated_only_policy
from repro.baselines.geo_proximity import GeoProximityClient
from repro.baselines.resource_aware import ResourceAwareWRRClient
from repro.baselines.static_pin import StaticPinClient
from repro.core.client import EdgeClient
from repro.core.config import SystemConfig
from repro.experiments.scenario import RealWorldScenario, build_real_world_system
from repro.metrics.report import CDF_FRACTIONS, Table, cdf_quantiles
from repro.metrics.stats import cdf_points, mean
from repro.nodes.hardware import (
    CLOUD_NODE,
    DEDICATED_PROFILES,
    VOLUNTEER_PROFILES,
    HardwareProfile,
)

#: Table II's rows: the ten machines of the real-world deployment.
TABLE2_PROFILES = (*VOLUNTEER_PROFILES, *DEDICATED_PROFILES, CLOUD_NODE)


def hardware_table(profiles: Tuple[HardwareProfile, ...] = TABLE2_PROFILES) -> Table:
    return (
        "Table II — hardware catalog",
        ["node", "processor", "cores", "frame ms", "capacity fps"],
        [
            [p.name, p.processor, p.cores, p.base_frame_ms, p.capacity_fps]
            for p in profiles
        ],
    )


# ----------------------------------------------------------------------
# Fig. 3 — CDF of end-to-end latency from one user to 4 edge servers
# ----------------------------------------------------------------------
@dataclass
class SingleUserCdfResult:
    """Per-target-node latency samples for one user."""

    user_id: str
    latencies: Dict[str, List[float]]  # node id -> e2e samples (ms)

    def cdfs(self) -> Dict[str, List[Tuple[float, float]]]:
        return {node: cdf_points(samples) for node, samples in self.latencies.items()}

    def means(self) -> Dict[str, float]:
        return {node: mean(samples) for node, samples in self.latencies.items()}

    def table(self) -> Table:
        return (
            f"Fig. 3 — user {self.user_id} vs {len(self.latencies)} edge servers",
            ["edge server", "mean e2e ms"],
            [[node, value] for node, value in self.means().items()],
        )

    def cdf_table(self) -> Table:
        return (
            "Fig. 3 — CDF of e2e latency (ms)",
            ["edge server"] + [f"p{int(f * 100):02d}" for f in CDF_FRACTIONS],
            [[node] + cdf_quantiles(points) for node, points in self.cdfs().items()],
        )


def run_single_user_cdf(
    config: SystemConfig = SystemConfig(),
    *,
    target_nodes: Tuple[str, ...] = ("V1", "V2", "V4", "D6"),
    duration_ms: float = 30_000.0,
    user_index: int = 0,
) -> SingleUserCdfResult:
    """Pin one user to each target node in isolated runs (paper Fig. 3).

    The same seed rebuilds the identical world each run, so the only
    variable is the serving node.
    """
    latencies: Dict[str, List[float]] = {}
    user_id = ""
    for node_id in target_nodes:
        scenario = build_real_world_system(config, n_users=user_index + 1)
        system = scenario.system
        user_id = scenario.user_ids[user_index]
        client = StaticPinClient(system, user_id, target_node_id=node_id)
        system.add_client(client)
        system.run_for(duration_ms)
        samples = client.stats.latencies_ms
        if not samples:
            raise RuntimeError(f"no frames completed against {node_id}")
        latencies[node_id] = list(samples)
    return SingleUserCdfResult(user_id=user_id, latencies=latencies)


# ----------------------------------------------------------------------
# Table III — pairwise latency + selection results (TopN = 6)
# ----------------------------------------------------------------------
@dataclass
class PairwiseSelectionResult:
    """The Table III matrix: measured pairwise means and chosen nodes."""

    user_ids: List[str]
    node_ids: List[str]
    pairwise_ms: Dict[Tuple[str, str], float]
    selected: Dict[str, str]  # user -> node picked by client-centric

    def row(self, user_id: str) -> List[float]:
        return [self.pairwise_ms[(user_id, n)] for n in self.node_ids]

    def table(self) -> Table:
        return (
            "Table III — pairwise e2e latency (ms); * = selected",
            ["user"] + list(self.node_ids),
            [
                [user]
                + [
                    f"{self.pairwise_ms[(user, node)]:5.0f}"
                    + ("*" if self.selected[user] == node else " ")
                    for node in self.node_ids
                ]
                for user in self.user_ids
            ],
        )


def run_pairwise_selection(
    config: Optional[SystemConfig] = None,
    *,
    n_probe_users: int = 3,
    measure_duration_ms: float = 15_000.0,
    select_duration_ms: float = 10_000.0,
) -> PairwiseSelectionResult:
    """Reproduce Table III.

    For each of ``n_probe_users`` users: (1) measure the mean end-to-end
    latency against every node in isolated pinned runs; (2) run the
    client-centric selection with ``TopN`` large enough to cover all
    nodes, and record which node it picks. The experiment is "conducted
    separately for [the] users to avoid interference".
    """
    config = config or SystemConfig()
    probe_all_config = config.with_(
        top_n=6, discovery_radius_km=2_000.0, wide_radius_km=5_000.0
    )

    template = build_real_world_system(probe_all_config, n_users=n_probe_users)
    node_ids = template.volunteer_ids + template.dedicated_ids[:1]
    if template.cloud_id is not None:
        node_ids.append(template.cloud_id)
    user_ids = template.user_ids[:n_probe_users]

    pairwise: Dict[Tuple[str, str], float] = {}
    selected: Dict[str, str] = {}
    for index, user_id in enumerate(user_ids):
        for node_id in node_ids:
            scenario = build_real_world_system(probe_all_config, n_users=index + 1)
            client = StaticPinClient(
                scenario.system, user_id, target_node_id=node_id
            )
            scenario.system.add_client(client)
            scenario.system.run_for(measure_duration_ms)
            pairwise[(user_id, node_id)] = client.stats.mean_latency_ms

        scenario = build_real_world_system(probe_all_config, n_users=index + 1)
        chooser = EdgeClient(scenario.system, user_id)
        scenario.system.add_client(chooser)
        scenario.system.run_for(select_duration_ms)
        if chooser.current_edge is None:
            raise RuntimeError(f"{user_id} failed to attach during selection run")
        selected[user_id] = chooser.current_edge

    return PairwiseSelectionResult(
        user_ids=user_ids,
        node_ids=node_ids,
        pairwise_ms=pairwise,
        selected=selected,
    )


# ----------------------------------------------------------------------
# Fig. 4 — reconnect vs immediate switch trace upon node failure
# ----------------------------------------------------------------------
@dataclass
class FailoverTraceResult:
    """Per-frame latency traces around a node failure, both approaches."""

    fail_at_ms: float
    proactive: List[Tuple[float, float]]  # (created_ms, latency_ms)
    reactive: List[Tuple[float, float]]

    def table(self) -> Table:
        return (
            f"Fig. 4 — node killed at t={self.fail_at_ms / 1000:.0f}s",
            ["approach", "peak latency after failure (ms)", "frames completed"],
            [
                ["proactive switch (ours)", self.proactive_peak_ms, len(self.proactive)],
                ["re-connect", self.reactive_peak_ms, len(self.reactive)],
            ],
        )

    def peak_latency(self, trace: List[Tuple[float, float]]) -> float:
        return max(latency for _, latency in trace)

    @property
    def reactive_peak_ms(self) -> float:
        return self.peak_latency(self.reactive)

    @property
    def proactive_peak_ms(self) -> float:
        return self.peak_latency(self.proactive)


def _run_failover_once(
    config: SystemConfig, fail_at_ms: float, duration_ms: float
) -> List[Tuple[float, float]]:
    scenario = build_real_world_system(config, n_users=1)
    system = scenario.system
    user_id = scenario.user_ids[0]
    client = EdgeClient(system, user_id)
    system.add_client(client)
    # Let the client settle, then kill whatever node it chose.
    system.run_for(fail_at_ms)
    victim = client.current_edge
    if victim is None:
        raise RuntimeError("client not attached before the scheduled failure")
    system.fail_node(victim)
    system.run_for(duration_ms - fail_at_ms)
    return [
        (record.created_ms, record.latency_ms)
        for record in system.metrics.frames
        if record.user_id == user_id and record.latency_ms is not None
    ]


def run_failover_trace(
    config: Optional[SystemConfig] = None,
    *,
    fail_at_ms: float = 10_000.0,
    duration_ms: float = 20_000.0,
) -> FailoverTraceResult:
    """Reproduce Fig. 4: proactive switch vs reactive re-connect.

    Proactive: the paper's client (TopN=3, standing backup connections).
    Reactive: TopN=1 — no backups, so the failure forces re-discovery
    over a cold connection.
    """
    config = config or SystemConfig()
    proactive = _run_failover_once(config.with_(top_n=3), fail_at_ms, duration_ms)
    reactive_config = config.with_(top_n=1)
    reactive = _run_failover_once(reactive_config, fail_at_ms, duration_ms)
    return FailoverTraceResult(
        fail_at_ms=fail_at_ms, proactive=proactive, reactive=reactive
    )


# ----------------------------------------------------------------------
# Fig. 5 — elasticity: average latency with increasing users
# ----------------------------------------------------------------------
STRATEGIES = (
    "client_centric",
    "geo_proximity",
    "resource_aware",
    "dedicated_only",
    "closest_cloud",
)


@dataclass
class ElasticityResult:
    """Average end-to-end latency per (strategy, user count)."""

    user_counts: List[int]
    averages_ms: Dict[str, List[float]] = field(default_factory=dict)

    def series(self, strategy: str) -> List[float]:
        return self.averages_ms[strategy]

    def table(self) -> Table:
        return (
            "Fig. 5 — average e2e latency (ms) by user count",
            ["strategy"] + [str(n) for n in self.user_counts],
            [
                [strategy] + [f"{v:.0f}" for v in series]
                for strategy, series in self.averages_ms.items()
            ],
        )


def _build_for_strategy(
    strategy: str, config: SystemConfig, n_users: int
) -> Tuple[RealWorldScenario, Type[EdgeClient], dict]:
    if strategy == "dedicated_only":
        scenario = build_real_world_system(
            config,
            n_users=n_users,
            include_cloud=False,
            global_policy=dedicated_only_policy(
                config.discovery_radius_km, config.wide_radius_km
            ),
        )
        return scenario, EdgeClient, {}
    if strategy == "closest_cloud":
        scenario = build_real_world_system(
            config, n_users=n_users, include_volunteers=False, include_dedicated=False
        )
        return scenario, StaticPinClient, {"target_node_id": scenario.cloud_id}
    scenario = build_real_world_system(config, n_users=n_users, include_cloud=False)
    client_cls: Type[EdgeClient] = {
        "client_centric": EdgeClient,
        "geo_proximity": GeoProximityClient,
        "resource_aware": ResourceAwareWRRClient,
    }[strategy]
    return scenario, client_cls, {}


def run_elasticity_sweep(
    config: Optional[SystemConfig] = None,
    *,
    max_users: int = 15,
    user_counts: Optional[List[int]] = None,
    join_stagger_ms: float = 2_000.0,
    settle_ms: float = 15_000.0,
    measure_ms: float = 15_000.0,
    strategies: Tuple[str, ...] = STRATEGIES,
) -> ElasticityResult:
    """Reproduce Fig. 5: per-strategy average latency as users pile in.

    Each (strategy, n) cell is its own simulation: ``n`` users join
    ``join_stagger_ms`` apart, the system settles, and the average
    completed-frame latency over the measurement window is reported.
    """
    config = config or SystemConfig()
    counts = user_counts or list(range(1, max_users + 1))
    result = ElasticityResult(user_counts=counts)

    for strategy in strategies:
        series: List[float] = []
        for n in counts:
            scenario, client_cls, extra = _build_for_strategy(strategy, config, n)
            system = scenario.system
            for i, user_id in enumerate(scenario.user_ids):
                client = client_cls(system, user_id, **extra)
                system.clients[user_id] = client
                system.sim.schedule(i * join_stagger_ms, client.start)
            total_join = len(scenario.user_ids) * join_stagger_ms
            start_measure = total_join + settle_ms
            system.run_for(start_measure + measure_ms)
            # The paper's metric P(EA) = (1/n) * sum over users — every
            # user counts equally. Averaging raw frames instead would
            # underweight exactly the users a bad policy hurts most,
            # because overloaded users adaptively throttle and emit
            # fewer frames.
            per_user = system.metrics.per_user_mean_latency(
                start_ms=start_measure, end_ms=start_measure + measure_ms
            )
            if not per_user:
                raise RuntimeError(
                    f"no completed frames for {strategy} at n={n}"
                )
            series.append(mean(list(per_user.values())))
        result.averages_ms[strategy] = series
    return result
