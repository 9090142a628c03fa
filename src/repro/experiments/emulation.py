"""Emulation experiments (§V-D1): Fig. 6 per-user traces, Fig. 7 vs optimal.

The emulated world: 9 EC2 volunteer nodes (4x t2.medium, 4x t2.xlarge,
1x t2.2xlarge), 15 users joining one by one every 10 seconds, pairwise
RTTs fixed per pair in 8-55 ms. Fig. 6 traces each user's end-to-end
latency under three selection methods; Fig. 7 compares the settled
average (after all joins) against the offline optimal assignment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Type

from repro.baselines.geo_proximity import GeoProximityClient
from repro.baselines.optimal import OptimalInstance, solve_optimal
from repro.baselines.resource_aware import ResourceAwareWRRClient
from repro.core.client import EdgeClient
from repro.core.config import SystemConfig
from repro.experiments.scenario import EmulationScenario, build_emulation_system
from repro.metrics.report import Table
from repro.metrics.stats import mean
from repro.metrics.timeseries import bin_series

EMULATION_METHODS: Dict[str, Type[EdgeClient]] = {
    "geo_proximity": GeoProximityClient,
    "resource_aware": ResourceAwareWRRClient,
    "client_centric": EdgeClient,
}

#: §V-D1 timing: a new user joins every 10 s; all 15 are in by 150 s.
JOIN_INTERVAL_MS = 10_000.0
ALL_JOINED_MS = 150_000.0
RUN_DURATION_MS = 180_000.0

#: Fig. 7 as the paper reports it: percent above the offline optimal.
PAPER_OVERHEAD_PCT = {
    "client_centric": 12.0,
    "resource_aware": 51.0,
    "geo_proximity": 102.0,
}


@dataclass
class UserTraceResult:
    """Fig. 6: per-user latency traces for each method."""

    methods: List[str]
    #: method -> user -> [(bin_start_ms, mean_latency_ms)]
    traces: Dict[str, Dict[str, List[Tuple[float, float]]]] = field(
        default_factory=dict
    )
    #: method -> count of users whose trace ever exceeds 150 ms
    over_150_users: Dict[str, int] = field(default_factory=dict)

    def table(self) -> Table:
        """Whole-trace mean, steady mean (all users joined) and the
        over-150 ms count, per method."""
        rows = []
        for method in self.methods:
            points = [p for trace in self.traces[method].values() for p in trace]
            rows.append(
                [
                    method,
                    mean([v for _, v in points]),
                    mean([v for t, v in points if t >= ALL_JOINED_MS]),
                    self.over_150_users[method],
                ]
            )
        return (
            "Fig. 6 — per-user traces, 15 users joining every 10 s",
            ["method", "trace mean ms", "steady mean ms", "users ever >150ms"],
            rows,
        )


def _run_method(
    method: str,
    config: SystemConfig,
    *,
    n_users: int = 15,
    duration_ms: float = RUN_DURATION_MS,
) -> EmulationScenario:
    scenario = build_emulation_system(config, n_users=n_users)
    system = scenario.system
    client_cls = EMULATION_METHODS[method]
    for i, user_id in enumerate(scenario.user_ids):
        client = client_cls(system, user_id)
        system.clients[user_id] = client
        system.sim.schedule(i * JOIN_INTERVAL_MS, client.start)
    system.run_for(duration_ms)
    return scenario


def run_user_traces(
    config: Optional[SystemConfig] = None,
    *,
    bin_ms: float = 2_000.0,
    methods: Tuple[str, ...] = ("geo_proximity", "resource_aware", "client_centric"),
) -> UserTraceResult:
    """Reproduce Fig. 6: per-user latency traces under the three methods."""
    config = config or SystemConfig()
    result = UserTraceResult(methods=list(methods))
    for method in methods:
        scenario = _run_method(method, config)
        metrics = scenario.system.metrics
        per_user: Dict[str, List[Tuple[float, float]]] = {}
        over_150 = 0
        for user_id in scenario.user_ids:
            times: List[float] = []
            values: List[float] = []
            for record in metrics.frames:
                if record.user_id == user_id and record.latency_ms is not None:
                    times.append(record.created_ms)
                    values.append(record.latency_ms)
            trace = bin_series(times, values, bin_ms)
            per_user[user_id] = trace
            if any(v > 150.0 for _, v in trace):
                over_150 += 1
        result.traces[method] = per_user
        result.over_150_users[method] = over_150
    return result


@dataclass
class VsOptimalResult:
    """Fig. 7: settled average latency per method vs the offline optimal."""

    optimal_ms: float
    averages_ms: Dict[str, float]

    def overhead_pct(self, method: str) -> float:
        """How far above optimal a method lands, in percent."""
        return (self.averages_ms[method] / self.optimal_ms - 1.0) * 100.0

    def table(self) -> Table:
        rows: List[List[object]] = [
            ["optimal (offline solver)", self.optimal_ms, "0%", "0%"]
        ]
        for method, paper_pct in PAPER_OVERHEAD_PCT.items():
            if method in self.averages_ms:
                rows.append(
                    [
                        method,
                        self.averages_ms[method],
                        f"{self.overhead_pct(method):+.0f}%",
                        f"+{paper_pct:.0f}%",
                    ]
                )
        return (
            "Fig. 7 — average latency after all 15 users joined",
            ["method", "avg latency ms", "vs optimal", "paper"],
            rows,
        )


def run_vs_optimal(
    config: Optional[SystemConfig] = None,
    *,
    measure_start_ms: float = 155_000.0,
    measure_end_ms: float = RUN_DURATION_MS,
    methods: Tuple[str, ...] = ("geo_proximity", "resource_aware", "client_centric"),
) -> VsOptimalResult:
    """Reproduce Fig. 7.

    The optimal reference is computed exactly as the paper describes:
    "based on the application profile on [the] EC2 instance[s] we use
    and the emulated network setup" — the analytic queue model over the
    configured expected pairwise delays, solved offline.
    """
    config = config or SystemConfig()
    averages: Dict[str, float] = {}
    reference: Optional[EmulationScenario] = None
    for method in methods:
        scenario = _run_method(method, config)
        if reference is None:
            reference = scenario
        per_user = scenario.system.metrics.per_user_mean_latency(
            start_ms=measure_start_ms, end_ms=measure_end_ms
        )
        if not per_user:
            raise RuntimeError(f"no completed frames for {method}")
        averages[method] = mean(list(per_user.values()))

    assert reference is not None
    system = reference.system
    transfer = {
        (u, n): system.topology.expected_transfer_ms(
            u, n, system.app.frame_bytes
        )
        for u in reference.user_ids
        for n in reference.node_ids
    }
    instance = OptimalInstance(
        user_ids=reference.user_ids,
        node_ids=reference.node_ids,
        profiles={n: system.nodes[n].profile for n in reference.node_ids},
        expected_network_ms={
            pair: rtt + transfer[pair] for pair, rtt in reference.expected_rtt.items()
        },
        default_fps=system.app.max_fps,
    )
    _, optimal_cost = solve_optimal(instance)
    return VsOptimalResult(optimal_ms=optimal_cost, averages_ms=averages)
