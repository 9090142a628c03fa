"""Reputation-weighted global selection (extension).

The paper points at reputation systems for unreliable volunteers (§IV-E
cites Sonnek et al., "Reputation-based scheduling on unreliable
distributed infrastructures") without building one. This module adds the
minimal useful version: the Central Manager tracks each node identity's
observed sessions (heartbeat appearance → disappearance) and scores
reliability with a Beta-style estimator over session lifetimes; the
global sort then discounts flaky nodes' availability, so repeat
offenders stop landing in candidate lists the moment alternatives exist.

A node's reliability starts at the neutral prior and converges with
evidence; identities are remembered across re-joins — exactly what makes
reputation meaningful under churn.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple

from repro.messages import DiscoveryQuery, NodeStatus
from repro.policy.global_policy import AFFILIATION_BONUS, DISTANCE_PENALTY_PER_KM


@dataclass
class NodeRecord:
    """Observed history of one node identity."""

    sessions: int = 0
    departures: int = 0
    total_uptime_ms: float = 0.0
    current_session_start_ms: float = -1.0

    @property
    def online(self) -> bool:
        return self.current_session_start_ms >= 0.0


@dataclass
class ReputationTracker:
    """Session-based reliability scores for node identities.

    Reliability is ``(uptime_credit + 1) / (uptime_credit + departures + 2)``
    where ``uptime_credit`` counts completed uptime in units of
    ``target_session_ms`` — a node must *stay* around to earn trust, and
    every unannounced departure costs one unit. New identities score the
    neutral prior 0.5; a long-lived dedicated node approaches 1.0; a
    node that flaps every few seconds sinks toward 0.
    """

    target_session_ms: float = 60_000.0
    _records: Dict[str, NodeRecord] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.target_session_ms <= 0:
            raise ValueError("target_session_ms must be positive")

    # ------------------------------------------------------------------
    def record_online(self, node_id: str, now_ms: float) -> None:
        """Called when a node (re)appears in the registry."""
        record = self._records.setdefault(node_id, NodeRecord())
        if not record.online:
            record.sessions += 1
            record.current_session_start_ms = now_ms

    def record_departure(self, node_id: str, now_ms: float) -> None:
        """Called when a node ages out of the registry (silent death)."""
        record = self._records.get(node_id)
        if record is None or not record.online:
            return
        record.total_uptime_ms += max(0.0, now_ms - record.current_session_start_ms)
        record.current_session_start_ms = -1.0
        record.departures += 1

    def reliability(self, node_id: str, now_ms: float) -> float:
        """Reliability estimate in (0, 1); 0.5 for unknown identities."""
        record = self._records.get(node_id)
        if record is None:
            return 0.5
        uptime = record.total_uptime_ms
        if record.online:
            uptime += max(0.0, now_ms - record.current_session_start_ms)
        credit = uptime / self.target_session_ms
        return (credit + 1.0) / (credit + record.departures + 2.0)

    def known_identities(self) -> Tuple[str, ...]:
        return tuple(sorted(self._records))


def reputation_sort_key(
    tracker: ReputationTracker,
    clock: Callable[[], float],
) -> Callable[[DiscoveryQuery], Callable[[NodeStatus], Tuple[float, str]]]:
    """A drop-in ``sort_key_factory`` discounting availability by reliability.

    ``score = reliability x free_cores + affiliation − distance_penalty``
    so a flaky node needs proportionally more spare capacity to outrank a
    proven one.
    """

    def factory(query: DiscoveryQuery) -> Callable[[NodeStatus], Tuple[float, str]]:
        user_point = query.point
        now_ms = clock()

        def key(node: NodeStatus) -> Tuple[float, str]:
            score = tracker.reliability(node.node_id, now_ms) * node.availability_score
            if query.isp is not None and node.isp == query.isp:
                score += AFFILIATION_BONUS
            score -= DISTANCE_PENALTY_PER_KM * user_point.distance_km(node.point)
            return (-score, node.node_id)

        return key

    return factory
