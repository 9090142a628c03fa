"""QoS-constrained selection and admission control (§IV-D extension).

"Users can first filter out edge candidates whose LO violates QoS
requirements and then select the node with lowest GO to optimize global
performance. In this case, new users can be rejected to join the system
if (1) no available edge nodes can satisfy the QoS requirements, or
(2) new joins lead to QoS violations of existing users."

This experiment loads the real-world deployment with an increasing user
population under a hard QoS bound and reports, per population size:

- how many users were admitted vs left unattached (admission control);
- the QoS violation rate among *admitted* users' frames;
- the same without QoS filtering, to show the trade the mechanism makes
  (everyone admitted, violations spread across the population).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.client import EdgeClient
from repro.core.config import SystemConfig
from repro.experiments.realworld import build_real_world_system
from repro.metrics.report import Table
from repro.metrics.stats import mean


@dataclass
class QosCell:
    """One (population size, mode) measurement."""

    n_users: int
    admitted: int
    rejected: int
    violation_rate: float  # fraction of completed frames above the bound
    admitted_mean_ms: Optional[float]


@dataclass
class QosAdmissionResult:
    user_counts: List[int]
    qos_latency_ms: float
    with_qos: Dict[int, QosCell] = field(default_factory=dict)
    without_qos: Dict[int, QosCell] = field(default_factory=dict)

    def table(self) -> Table:
        rows = []
        for n in self.user_counts:
            row: List[object] = [n, f"{self.with_qos[n].admitted}/{n}"]
            for cell in (self.with_qos[n], self.without_qos[n]):
                row.append(f"{cell.violation_rate:.1%}")
                row.append(
                    f"{cell.admitted_mean_ms:.0f}" if cell.admitted_mean_ms else "-"
                )
            rows.append(row)
        return (
            f"Extension — admission control at QoS = {self.qos_latency_ms:.0f} ms",
            ["users", "admitted (QoS)", "violations (QoS)", "mean ms (QoS)",
             "violations (open)", "mean ms (open)"],
            rows,
        )


def _run_cell(
    config: SystemConfig,
    n_users: int,
    qos_latency_ms: float,
    *,
    enforce: bool,
    settle_ms: float,
    measure_ms: float,
    join_stagger_ms: float,
) -> QosCell:
    cell_config = config.with_(qos_latency_ms=qos_latency_ms if enforce else None)
    scenario = build_real_world_system(cell_config, n_users=n_users, include_cloud=False)
    system = scenario.system
    for i, user_id in enumerate(scenario.user_ids):
        client = EdgeClient(system, user_id)
        system.clients[user_id] = client
        system.sim.schedule(i * join_stagger_ms, client.start)
    start_measure = n_users * join_stagger_ms + settle_ms
    system.run_for(start_measure + measure_ms)

    admitted = [c for c in system.clients.values() if c.attached]
    window = system.metrics.completed_latencies(
        start_ms=start_measure, end_ms=start_measure + measure_ms
    )
    violations = sum(1 for v in window if v > qos_latency_ms)
    return QosCell(
        n_users=n_users,
        admitted=len(admitted),
        rejected=n_users - len(admitted),
        violation_rate=violations / len(window) if window else 0.0,
        admitted_mean_ms=mean(window) if window else None,
    )


def run_qos_admission(
    config: Optional[SystemConfig] = None,
    *,
    qos_latency_ms: float = 90.0,
    user_counts: Optional[List[int]] = None,
    settle_ms: float = 15_000.0,
    measure_ms: float = 15_000.0,
    join_stagger_ms: float = 2_000.0,
) -> QosAdmissionResult:
    """Sweep population size with and without the QoS filter."""
    config = config or SystemConfig()
    counts = user_counts or [5, 10, 15, 20]
    result = QosAdmissionResult(user_counts=counts, qos_latency_ms=qos_latency_ms)
    for n in counts:
        result.with_qos[n] = _run_cell(
            config,
            n,
            qos_latency_ms,
            enforce=True,
            settle_ms=settle_ms,
            measure_ms=measure_ms,
            join_stagger_ms=join_stagger_ms,
        )
        result.without_qos[n] = _run_cell(
            config,
            n,
            qos_latency_ms,
            enforce=False,
            settle_ms=settle_ms,
            measure_ms=measure_ms,
            join_stagger_ms=join_stagger_ms,
        )
    return result
