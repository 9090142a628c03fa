"""The policy-matrix experiment: selection policies under repeated faults.

The scenario is a deliberate trap for memoryless rankers. ``trap-a``
and ``trap-b`` are the two best machines in the deployment (V1/V2,
24/32 ms per frame) and sit closest to every user, so LO and GO rank
them first and second whenever they answer probes. But the traps share
a failure domain: on a cadence set by ``churn_rate`` they fault
*together* — either both crash (``fault_family="node_crash"``,
restarting a few seconds later with empty populations and freshly
primed what-if caches — maximally tempting again) or both go gray
(``fault_family="gray"``: heartbeats stay crisp while frame service
slows 8x). Three slower-but-solid nodes ring the users at a modest
distance.

Memoryless policies re-join a trap after every episode AND keep the
other trap at the head of the backup list, so a crash episode costs
them a failover walk through a dead backup before a solid node answers
— a long recovery gap, repeated every episode. History-keeping
policies (:class:`~repro.policy.ReliabilityPolicy` above all) learn to
discount the whole failure domain, trading slightly worse steady-state
latency for far fewer and far shorter recovery gaps — visible directly
in the failover-gap p95.

``churn_rate`` is episodes per 15 s of sim time; the default horizon is
60 s, so ``churn_rate=2.0`` means eight fault episodes per run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.client import EdgeClient
from repro.core.config import SystemConfig
from repro.core.system import EdgeSystem
from repro.faults import FaultInjector, FaultPlan
from repro.faults.plan import GrayNode, NodeCrash, Window
from repro.geo.point import GeoPoint
from repro.metrics.stats import percentile
from repro.net.topology import EndpointSpec
from repro.nodes.hardware import profile_by_name
from repro.obs.analyze import TraceAnalyzer
from repro.obs.tracer import Tracer

__all__ = [
    "PolicyMatrixResult",
    "FAULT_FAMILIES",
    "build_trap_plan",
    "run_policy_matrix",
]

FAULT_FAMILIES = ("node_crash", "gray")

#: One fault episode per this much sim time at ``churn_rate=1.0``.
EPISODE_PERIOD_MS = 15_000.0

TRAP_IDS = ("trap-a", "trap-b")


def build_trap_plan(
    fault_family: str,
    churn_rate: float,
    horizon_ms: float,
) -> FaultPlan:
    """Deterministic fault schedule against the trap failure domain.

    Episodes start at 5 s (after first attachments settle) and repeat
    every ``EPISODE_PERIOD_MS / churn_rate``; both traps fault in every
    episode. A crash episode restarts the nodes 3 s later; a gray
    episode lasts 6 s at 8x slowdown.
    """
    if fault_family not in FAULT_FAMILIES:
        raise ValueError(
            f"unknown fault_family {fault_family!r}; known: {FAULT_FAMILIES}"
        )
    if churn_rate <= 0:
        raise ValueError(f"churn_rate must be positive: {churn_rate}")
    period_ms = EPISODE_PERIOD_MS / churn_rate
    starts: List[float] = []
    t = 5_000.0
    while t < horizon_ms - 4_000.0:
        starts.append(t)
        t += period_ms
    if fault_family == "node_crash":
        return FaultPlan(
            crashes=tuple(
                NodeCrash(
                    rule_id=f"{trap}-crash-{i}",
                    node_id=trap,
                    at_ms=at,
                    restart_at_ms=at + 3_000.0,
                )
                for i, at in enumerate(starts)
                for trap in TRAP_IDS
            )
        )
    return FaultPlan(
        gray_nodes=tuple(
            GrayNode(
                rule_id=f"{trap}-gray-{i}",
                node_id=trap,
                window=Window(at, at + 6_000.0),
                slowdown=8.0,
            )
            for i, at in enumerate(starts)
            for trap in TRAP_IDS
        )
    )


@dataclass
class PolicyMatrixResult:
    """One policy-matrix cell, reduced to sweepable scalars."""

    policy: str
    fault_family: str
    churn_rate: float
    metrics: Dict[str, float] = field(default_factory=dict)


def run_policy_matrix(
    policy: str,
    *,
    fault_family: str = "node_crash",
    churn_rate: float = 1.0,
    horizon_ms: float = 60_000.0,
    n_users: int = 3,
    seed: int = 0,
    warmup_ms: float = 10_000.0,
) -> PolicyMatrixResult:
    """Run one cell of the policy matrix and reduce it to scalars.

    Metrics are computed over the steady-state window ``t >= warmup_ms``
    (default: past the first fault episode). Every policy eats the first
    episode blind — there is no history yet to learn from — so including
    it would only blur the thing the matrix measures: whether a policy
    *learns* from that first burn or walks into the trap again.
    """
    plan = build_trap_plan(fault_family, churn_rate, horizon_ms)
    injector = FaultInjector(plan, seed=seed)
    tracer = Tracer()
    system = EdgeSystem(
        SystemConfig(
            seed=seed,
            top_n=3,
            probing_period_ms=2_000.0,
            attachment_lease_ms=6_000.0,
            policy_spec=policy,
        ),
        trace=tracer,
        faults=injector,
    )
    center = GeoPoint(44.97, -93.25)
    # The trap failure domain: best hardware, right on top of the users.
    for trap, name, dx in zip(TRAP_IDS, ("V1", "V2"), (0.5, -0.5)):
        system.add_node(
            trap, profile_by_name(name), EndpointSpec(center.offset_km(dx, 0.5))
        )
    # The solid ring: slower machines, a few km out, never faulted.
    for i, name in enumerate(("V3", "V4", "V5")):
        system.add_node(
            f"solid-{name}",
            profile_by_name(name),
            EndpointSpec(center.offset_km(4.0 + i, -3.0 + 2.0 * i)),
        )
    clients: List[EdgeClient] = []
    for i in range(n_users):
        user_id = f"user-{i + 1:02d}"
        system.add_client_endpoint(
            user_id, EndpointSpec(center.offset_km(-0.4 * i, 0.4 * i))
        )
        client = EdgeClient(system, user_id)
        system.add_client(client)
        clients.append(client)

    system.run_for(horizon_ms)
    tracer.close()

    events = [e for e in tracer.events() if e.t_ms >= warmup_ms]
    analyzer = TraceAnalyzer(events)
    counts = analyzer.event_type_counts()
    latencies = [
        e.latency_ms
        for e in events
        if e.type == "frame_done" and e.latency_ms is not None
    ]
    gaps = [gap for _, gap in analyzer.failover_gaps()]
    completed = len(latencies)
    lost = sum(
        1
        for e in events
        if e.type == "frame_done" and e.latency_ms is None
    )
    total = completed + lost
    trap_joins = sum(
        1
        for e in events
        if e.type == "join_accept" and getattr(e, "node_id", None) in TRAP_IDS
    )
    metrics: Dict[str, float] = {
        "latency_p50_ms": percentile(latencies, 50.0) if latencies else 0.0,
        "latency_p95_ms": percentile(latencies, 95.0) if latencies else 0.0,
        "latency_p99_ms": percentile(latencies, 99.0) if latencies else 0.0,
        "failover_gap_p95_ms": percentile(gaps, 95.0) if gaps else 0.0,
        "failover_gap_mean_ms": (sum(gaps) / len(gaps)) if gaps else 0.0,
        "failover_gaps": float(len(gaps)),
        "covered_failovers": float(counts.get("covered_failover", 0)),
        "uncovered_failures": float(counts.get("uncovered_failure", 0)),
        "switches": float(counts.get("switch", 0)),
        "loss_rate": (lost / total) if total else 0.0,
        "trap_joins": float(trap_joins),
        "faults_injected": float(sum(injector.injected.values())),
    }
    return PolicyMatrixResult(
        policy=policy,
        fault_family=fault_family,
        churn_rate=churn_rate,
        metrics=metrics,
    )
