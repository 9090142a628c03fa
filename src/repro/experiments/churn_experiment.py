"""Churn experiments (§V-D2): Fig. 8 trace, Fig. 9 TopN sweep, Fig. 10.

Setup exactly per the paper: 10 static users; volunteer node arrivals
Poisson (k=4 per 30 s epoch) with Weibull lifetimes (mean 50 s); a
configuration with a total of 18 nodes over the 3-minute timeline is
selected; the 18 episodes are randomly matched with 8x t2.medium,
8x t2.xlarge and 2x t2.2xlarge instances; networking as in §V-D1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.churn.injector import ChurnInjector
from repro.churn.models import PoissonArrivalModel, WeibullLifetimeModel
from repro.churn.trace import ChurnTrace, generate_trace
from repro.core.client import EdgeClient
from repro.core.config import SystemConfig
from repro.core.system import EdgeSystem
from repro.experiments.scenario import (
    CHURN_NODE_MIX,
    emulation_node_profiles,
    emulation_topology,
    emulation_world,
)
from repro.geo.region import MSP_CENTER
from repro.metrics.collector import MetricsCollector
from repro.metrics.report import Table
from repro.metrics.stats import mean, stddev
from repro.metrics.timeseries import bin_series
from repro.world import World

HORIZON_MS = 180_000.0  # the paper's 3-minute timeline
TARGET_TOTAL_NODES = 18


def make_churn_trace(
    config: SystemConfig,
    *,
    horizon_ms: float = HORIZON_MS,
    target_total_nodes: Optional[int] = TARGET_TOTAL_NODES,
    min_alive: int = 2,
) -> ChurnTrace:
    """Generate the §V-D2 churn configuration (seeded by the config).

    The paper "randomly select[s] a configuration from multiple runs of
    this process" — i.e. the published trace is a hand-picked acceptable
    draw, not an arbitrary one. We encode the acceptance: the first node
    arrives within 5 s (users are not staring at an empty system) and
    the population never drops below ``min_alive`` after the first 10 s
    (matching the visible floor of Fig. 8's stair line; with zero alive
    nodes every failure is trivially uncovered and Fig. 10's TopN story
    cannot be asked at all).
    """
    rng = __import__("random").Random(config.seed * 977 + 13)
    arrivals = PoissonArrivalModel(k=4.0, epoch_ms=30_000.0)
    lifetimes = WeibullLifetimeModel(mean_ms=50_000.0)
    for _ in range(20_000):
        trace = generate_trace(
            rng,
            horizon_ms=horizon_ms,
            arrivals=arrivals,
            lifetimes=lifetimes,
            target_total_nodes=target_total_nodes,
        )
        if trace.episodes[0].join_ms > 5_000.0:
            continue
        floor = min(
            trace.alive_count_at(ms)
            for ms in range(10_000, int(horizon_ms) - 5_000, 1_000)
        )
        if floor >= min_alive:
            return trace
    raise RuntimeError("could not generate an acceptable churn configuration")


@dataclass
class ChurnRunResult:
    """One churn run's artifacts."""

    world: World
    trace: ChurnTrace
    metrics: MetricsCollector
    top_n: int

    # convenience reductions -------------------------------------------------
    def average_latency_ms(self, start_ms: float, end_ms: float) -> float:
        """Paper metric: mean of per-user mean latencies over a window."""
        per_user = self.metrics.per_user_mean_latency(start_ms, end_ms)
        if not per_user:
            raise RuntimeError("no completed frames in the window")
        return mean(list(per_user.values()))

    def fairness_std_ms(self, start_ms: float, end_ms: float) -> float:
        """Fig. 9(d): std-dev of per-user mean latency."""
        per_user = self.metrics.per_user_mean_latency(start_ms, end_ms)
        if not per_user:
            raise RuntimeError("no completed frames in the window")
        return stddev(list(per_user.values()))


def run_churn_once(
    config: Optional[SystemConfig] = None,
    *,
    n_users: int = 10,
    trace: Optional[ChurnTrace] = None,
    duration_ms: float = HORIZON_MS,
    proactive_connections: bool = True,
) -> ChurnRunResult:
    """Run one churn experiment with the client-centric approach.

    The same ``trace`` (and config seed) can be re-used across ``TopN``
    values so Fig. 9's sweep varies exactly one parameter.
    """
    config = config or SystemConfig()
    world = emulation_world(config.seed, n_users=n_users, spawn_nodes=False)
    system = EdgeSystem(config, world=world, topology=emulation_topology())
    trace = trace or make_churn_trace(config)
    injector = ChurnInjector(
        system,
        emulation_node_profiles(CHURN_NODE_MIX),
        center=MSP_CENTER,
        placement_radius_km=80.0,
    )
    injector.install(trace)
    for user_id in world.user_ids:
        client = EdgeClient(
            system, user_id, proactive_connections=proactive_connections
        )
        system.clients[user_id] = client
        client.start()
    system.run_for(duration_ms)
    return ChurnRunResult(
        world=world, trace=trace, metrics=system.metrics, top_n=config.top_n
    )


# ----------------------------------------------------------------------
# Fig. 8 — average performance trace + node population
# ----------------------------------------------------------------------
@dataclass
class ChurnTraceResult:
    """Fig. 8: average latency per window beside the alive-node count."""

    latency_trace: List[Tuple[float, float]]  # (bin_start_ms, avg ms)
    trace: ChurnTrace
    bin_ms: float

    @property
    def population_steps(self) -> List[Tuple[float, int]]:
        """(time_ms, alive count) at every join/fail — the stair line."""
        return [(t, int(c)) for t, c in self.trace.population_steps()]

    @property
    def total_nodes(self) -> int:
        return len(self.trace)

    def table(self) -> Table:
        """One row per window over the whole horizon, so every seed has
        the same rows; a window without a completed frame has no latency."""
        latency = dict(self.latency_trace)
        starts = range(0, int(self.trace.horizon_ms), int(self.bin_ms))
        return (
            f"Fig. 8 — {self.total_nodes} volunteer episodes over 3 minutes",
            ["window start", "alive nodes", "avg latency ms"],
            [
                [f"{t / 1000:.0f}s", self.trace.alive_count_at(t), latency.get(t)]
                for t in starts
            ],
        )


def run_churn_trace(
    config: Optional[SystemConfig] = None,
    *,
    bin_ms: float = 5_000.0,
) -> ChurnTraceResult:
    """Reproduce Fig. 8 (TopN = 3, 10 static users)."""
    config = (config or SystemConfig()).with_(top_n=3)
    result = run_churn_once(config)
    times: List[float] = []
    values: List[float] = []
    for record in result.metrics.frames:
        if record.latency_ms is not None:
            times.append(record.created_ms)
            values.append(record.latency_ms)
    return ChurnTraceResult(
        latency_trace=bin_series(times, values, bin_ms),
        trace=result.trace,
        bin_ms=bin_ms,
    )


# ----------------------------------------------------------------------
# Fig. 9 — TopN sweep: overhead, latency, fairness
# ----------------------------------------------------------------------
@dataclass
class TopNSweepResult:
    """Fig. 9 and Fig. 10(b): per-TopN measurements over the same trace."""

    top_ns: List[int]
    probes: Dict[int, int] = field(default_factory=dict)  # (a)
    test_invocations: Dict[int, int] = field(default_factory=dict)  # (b)
    avg_latency_ms: Dict[int, float] = field(default_factory=dict)  # (c)
    fairness_std_ms: Dict[int, float] = field(default_factory=dict)  # (d)
    uncovered_failures: Dict[int, int] = field(default_factory=dict)  # Fig. 10b

    def table(self) -> Table:
        columns = {
            "(a) probes": self.probes,
            "(b) test invocations": self.test_invocations,
            "(c) avg ms 60-120s": self.avg_latency_ms,
            "(d) fairness std": self.fairness_std_ms,
            "failures": self.uncovered_failures,
        }
        return (
            "Fig. 9 — TopN sweep over the same churn trace",
            ["TopN", *columns],
            [[n, *(column[n] for column in columns.values())] for n in self.top_ns],
        )


def run_topn_sweep(
    config: Optional[SystemConfig] = None,
    *,
    top_ns: Tuple[int, ...] = (1, 2, 3, 4, 5),
    window: Tuple[float, float] = (60_000.0, 120_000.0),
) -> TopNSweepResult:
    """Reproduce Fig. 9: sweep TopN 1..5 over the same churn trace.

    (c) averages latency over the paper's 60-120 s window.
    """
    config = config or SystemConfig()
    trace = make_churn_trace(config)
    result = TopNSweepResult(top_ns=list(top_ns))
    for top_n in top_ns:
        run = run_churn_once(config.with_(top_n=top_n), trace=trace)
        result.probes[top_n] = run.metrics.total_probes()
        result.test_invocations[top_n] = run.metrics.total_test_invocations()
        result.avg_latency_ms[top_n] = run.average_latency_ms(*window)
        result.fairness_std_ms[top_n] = run.fairness_std_ms(*window)
        result.uncovered_failures[top_n] = run.metrics.total_failures()
    return result


# ----------------------------------------------------------------------
# Fig. 10 — fault tolerance
# ----------------------------------------------------------------------
@dataclass
class FaultToleranceResult:
    """Fig. 10(a): failover downtime, proactive vs reactive.

    Fig. 10(b), failures per TopN, is the ``failures`` column of the
    Fig. 9 sweep (:class:`TopNSweepResult`): the same runs.
    """

    proactive_recovery_ms: float  # mean service downtime per failover
    reactive_recovery_ms: float
    proactive_events: int
    reactive_events: int

    def table(self) -> Table:
        return (
            "Fig. 10(a) — service downtime per failover",
            ["approach", "mean recovery downtime ms", "events"],
            [
                ["proactive switch (ours)", self.proactive_recovery_ms,
                 self.proactive_events],
                ["reactive re-connect", self.reactive_recovery_ms,
                 self.reactive_events],
            ],
        )


def _recovery_downtimes(metrics: MetricsCollector) -> List[float]:
    """Service downtime around each failover/failure event.

    Downtime = gap between the last frame completed before the event and
    the first frame completed after it, for the affected user. This is
    the "unacceptable delay gap for latency-critical applications" that
    Fig. 4/10a visualize — and unlike raw frame latencies it is not
    hidden by clients dropping frames that went stale during the outage.
    """
    events = list(metrics.failover_events) + list(metrics.failure_events)
    downtimes: List[float] = []
    for user_id, at_ms in events:
        last_before: Optional[float] = None
        first_after: Optional[float] = None
        for record in metrics.frames:
            if record.user_id != user_id or record.latency_ms is None:
                continue
            completed = record.created_ms + record.latency_ms
            if completed <= at_ms:
                if last_before is None or completed > last_before:
                    last_before = completed
            elif first_after is None or completed < first_after:
                first_after = completed
        if last_before is not None and first_after is not None:
            downtimes.append(first_after - last_before)
    return downtimes


def run_fault_tolerance(config: Optional[SystemConfig] = None) -> FaultToleranceResult:
    """Reproduce Fig. 10(a).

    Contrasts recovery spikes between the proactive approach (TopN=3,
    standing backup connections) and the reactive re-connect approach
    (TopN=1, cold reconnection) over the same churn trace.
    """
    config = config or SystemConfig()
    trace = make_churn_trace(config)

    proactive = run_churn_once(config.with_(top_n=3), trace=trace)
    reactive = run_churn_once(
        config.with_(top_n=1), trace=trace, proactive_connections=False
    )
    pro_spikes = _recovery_downtimes(proactive.metrics)
    rea_spikes = _recovery_downtimes(reactive.metrics)
    return FaultToleranceResult(
        proactive_recovery_ms=mean(pro_spikes) if pro_spikes else 0.0,
        reactive_recovery_ms=mean(rea_spikes) if rea_spikes else 0.0,
        proactive_events=len(pro_spikes),
        reactive_events=len(rea_spikes),
    )
