"""The Central Manager — simulation driver over the protocol core.

"Central Manager collects real-time node status/resource utilization
information from edge nodes to serve edge discovery queries" (§IV-A).
It is deliberately *not* in the request path — it only answers discovery
queries with a coarse TopN candidate list; clients do the accurate work.

The registry, expiry heap, spatial index, TopN ranking and the smooth
WRR state all live in
:class:`repro.protocol.global_select.GlobalSelectionMachine`; this class
adapts it to the simulated backend: sim method calls in, wire messages
out, plus the driver-owned extras — query/heartbeat counters and the
optional reputation tracker fed from ``NodeOnline``/``NodeExpired``
effects.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.geo.spatial_index import GeohashSpatialIndex
from repro.messages import CandidateList, DiscoveryQuery, NodeStatus
from repro.policy.global_policy import GlobalSelectionPolicy
from repro.protocol.effects import (
    Effect,
    NodeExpired,
    NodeOnline,
    ReplyAssignment,
    ReplyCandidates,
)
from repro.protocol.events import (
    DiscoveryRequested,
    HeartbeatReceived,
    NodeForgotten,
    PruneTick,
    WrrAssignRequested,
)
from repro.protocol.global_select import GlobalSelectionMachine

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.policy.reputation import ReputationTracker
    from repro.core.system import EdgeSystem


class CentralManager:
    """Registry of alive edge nodes + the global selection policy.

    Args:
        system: owning system (for the clock).
        policy: the composed global selection policy; replaceable to
            restrict pools (e.g. dedicated-only scenarios).
    """

    def __init__(
        self,
        system: "EdgeSystem",
        policy: Optional[GlobalSelectionPolicy] = None,
        reputation: Optional["ReputationTracker"] = None,
    ) -> None:
        self.system = system
        #: The sans-IO Central Manager core this driver executes. The
        #: sim's expiry stamps are heartbeat ``reported_at_ms`` values
        #: compared against ``sim.now``.
        self._machine = GlobalSelectionMachine(
            policy or GlobalSelectionPolicy(),
            heartbeat_timeout=system.config.heartbeat_timeout_ms,
        )
        #: Optional reputation extension: when set, heartbeat appearances
        #: and silent departures feed it (install its sort key on the
        #: policy to act on the scores; see policies/reputation.py).
        self.reputation = reputation
        self.queries_served = 0
        self.heartbeats_received = 0

    # ------------------------------------------------------------------
    # Protocol-core state, exposed on the driver for experiments.
    # ------------------------------------------------------------------
    @property
    def policy(self) -> GlobalSelectionPolicy:
        return self._machine.policy

    @policy.setter
    def policy(self, policy: GlobalSelectionPolicy) -> None:
        self._machine.policy = policy

    @property
    def spatial_index(self) -> GeohashSpatialIndex[NodeStatus]:
        return self._machine.spatial_index

    @property
    def _registry(self) -> Dict[str, NodeStatus]:
        return self._machine.registry

    # ------------------------------------------------------------------
    def _run_effects(self, effects: List[Effect]) -> Optional[Effect]:
        """Execute registry effects in order; return the reply (if any)."""
        reply: Optional[Effect] = None
        for effect in effects:
            if isinstance(effect, NodeOnline):
                if self.reputation is not None:
                    self.reputation.record_online(
                        effect.node_id, self.system.sim.now
                    )
            elif isinstance(effect, NodeExpired):
                if self.reputation is not None:
                    self.reputation.record_departure(
                        effect.node_id, self.system.sim.now
                    )
            elif isinstance(effect, (ReplyCandidates, ReplyAssignment)):
                reply = effect
            else:  # pragma: no cover - forward-compatibility guard
                raise TypeError(f"unhandled effect {type(effect).__name__}")
        return reply

    # ------------------------------------------------------------------
    # Registry maintenance
    # ------------------------------------------------------------------
    def receive_heartbeat(self, status: NodeStatus) -> None:
        """Ingest a node status report."""
        self.heartbeats_received += 1
        self._run_effects(
            self._machine.handle(
                HeartbeatReceived(stamp=status.reported_at_ms, status=status)
            )
        )

    def forget_node(self, node_id: str) -> None:
        """Explicitly remove a node (e.g. administrative deregistration)."""
        self._run_effects(self._machine.handle(NodeForgotten(node_id)))

    def prune_stale(self) -> None:
        """Expire registry entries older than ``heartbeat_timeout_ms``
        (the machine's ``_prune``: amortized O(1) off its expiry heap)."""
        self._run_effects(self._machine.handle(PruneTick(self.system.sim.now)))

    def alive_statuses(self) -> List[NodeStatus]:
        """Statuses not older than the heartbeat timeout (pruned on read)."""
        self.prune_stale()
        return list(self._machine.registry.values())

    def known_node_ids(self) -> List[str]:
        return list(self._machine.registry)

    # ------------------------------------------------------------------
    # Edge discovery (global edge selection)
    # ------------------------------------------------------------------
    def discover(self, query: DiscoveryQuery) -> CandidateList:
        """Answer an edge discovery query with the TopN candidate list
        (the machine's ``_on_discovery``: prune, then the spatial index)."""
        self.queries_served += 1
        now = self.system.sim.now
        reply = self._run_effects(
            self._machine.handle(
                DiscoveryRequested(now=now, stamp=now, query=query)
            )
        )
        assert isinstance(reply, ReplyCandidates)
        return CandidateList(
            user_id=query.user_id,
            node_ids=reply.node_ids,
            generated_at_ms=reply.generated_at_ms,
            widened=reply.widened,
        )

    # ------------------------------------------------------------------
    # Resource-aware weighted round robin (baseline support)
    # ------------------------------------------------------------------
    def wrr_assign(self, query: DiscoveryQuery) -> Optional[str]:
        """Assign a user to a node by smooth weighted round robin over
        the latest availability scores (the machine's ``_on_wrr_assign``)."""
        reply = self._run_effects(
            self._machine.handle(
                WrrAssignRequested(
                    stamp=self.system.sim.now, exclude=tuple(query.exclude)
                )
            )
        )
        assert isinstance(reply, ReplyAssignment)
        return reply.node_id

    def status(self) -> Dict[str, int]:
        """The live ``status`` op's counters, for the simulated manager."""
        index = self._machine.spatial_index
        return {
            "nodes": len(self._machine.registry),
            "queries_served": self.queries_served,
            "heartbeats_received": self.heartbeats_received,
            "cuts_remembered": index.cuts_remembered,
            "cuts_computed": index.cuts_computed,
        }

    def __repr__(self) -> str:
        return (
            f"CentralManager(nodes={len(self._machine.registry)}, "
            f"queries={self.queries_served})"
        )
