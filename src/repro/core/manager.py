"""The Central Manager — the simulation's one manager, at every shape.

"Central Manager collects real-time node status/resource utilization
information from edge nodes to serve edge discovery queries" (§IV-A).
It is deliberately *not* in the request path — it only answers discovery
queries with a coarse TopN candidate list; clients do the accurate work.

The registry runs as ``SystemConfig.control_plane_shards x
control_plane_replicas`` :class:`GlobalSelectionMachine` instances
stepped inside the kernel; 1x1, the default, is simply the smallest
shape. Heartbeats route to the owning shard and are applied to every
alive replica (delta replication); discovery runs the
:class:`~repro.controlplane.router.ShardRouter` two-phase fan-out with
each shard answering from its serving primary, and the merged answer
equals one machine's over the union registry. A one-shard map asks
shard 0 without a geohash cover and traces no routing, so the default
run is the seed's byte for byte (the LO golden trace and the parity
suites hold this).

The role — effect dispatch, counters, the arrival order WRR reads,
replica membership, promotion and rejoin — is the shared
:class:`~repro.protocol.driver.ManagerDriver`; this class steps the
machines in process and copies snapshots between them. A shard-targeted
``ManagerOutage`` reports the primary unreachable when it starts, and
the driver promotes a standby ``failure_detection_ms`` later; meanwhile
a discovery touching the shard raises :class:`ControlPlaneUnavailable`
(the client's degraded fallback). Its end rejoins the replica.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.controlplane.errors import ControlPlaneUnavailable
from repro.controlplane.replication import ReplicatedShard
from repro.controlplane.router import PartialSelection, ShardRouter, emit_routing
from repro.controlplane.sharding import ShardMap
from repro.messages import CandidateList, DiscoveryQuery, NodeStatus
from repro.policy.global_policy import GlobalSelectionPolicy
from repro.protocol.driver import ManagerDriver
from repro.protocol.events import PartialDiscoveryRequested
from repro.protocol.global_select import GlobalSelectionMachine, smooth_wrr_pick

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.system import EdgeSystem

#: Period of the standby snapshot-sync timer (bounds divergence when a
#: standby missed deltas; a no-op while deltas keep replicas identical).
SNAPSHOT_SYNC_PERIOD_MS = 5_000.0


class CentralManager(ManagerDriver[ReplicatedShard]):
    """Registry of alive edge nodes + the global selection policy.

    Args:
        system: owning system: its clock, tracer, config (the shape)
            and fault plan. The manager keeps the clock and the tracer,
            not the system.
        policy: the composed global selection policy (e.g. restricted
            to dedicated nodes).

    Raises:
        ValueError: the system's fault plan takes down a shard this
            manager does not have.
    """

    _promote_reason = "outage"

    def __init__(
        self,
        system: "EdgeSystem",
        policy: Optional[GlobalSelectionPolicy] = None,
    ) -> None:
        config = system.config
        shards = config.control_plane_shards
        targets = system.faults.plan.shard_targets() if system.faults is not None else []
        if targets and targets[-1] >= shards:
            raise ValueError(
                f"plan targets shard {targets[-1]} of a {shards}-shard manager"
            )
        self.sim = system.sim
        self._policy = policy or GlobalSelectionPolicy()
        timeout = config.heartbeat_timeout_ms
        replicas = config.control_plane_replicas
        # A dead primary is noticed as fast as a dead edge node.
        super().__init__(
            [
                ReplicatedShard(index, [
                    GlobalSelectionMachine(self._policy, heartbeat_timeout=timeout)
                    for _ in range(replicas)
                ])
                for index in range(shards)
            ],
            tracer=system.trace,
            promotion_delay_ms=config.failure_detection_ms,
        )
        self.shard_map = ShardMap(count=shards)
        self.router = ShardRouter(self.shard_map, self._policy)
        # Smooth-WRR state lives here: the baseline's round robin is
        # global across shards, so no single machine can own it.
        self._wrr_current: Dict[str, float] = {}
        self._last_snapshot_sync = 0.0

    @property
    def policy(self) -> GlobalSelectionPolicy:
        return self._policy

    def _now(self) -> float:
        return self.sim.now

    def _call_later(self, delay_ms: float, callback: Callable[[], None], label: str) -> None:
        self.sim.schedule(delay_ms, callback, label=label)

    def _node_expired(self, node_id: str) -> None:
        self._wrr_current.pop(node_id, None)

    # ------------------------------------------------------------------
    # Registry maintenance
    # ------------------------------------------------------------------
    def receive_heartbeat(self, status: NodeStatus) -> None:
        """Route a status report to its owning shard's replica set."""
        self.heartbeats_received += 1
        shard = self.shards[self.router.owner_of(status)]
        if not shard.alive_replicas():
            self.heartbeats_dropped += 1
            return
        self._run_effects(shard.apply_heartbeat(status.reported_at_ms, status))
        self._maybe_snapshot_sync()

    def prune_stale(self) -> None:
        """Expire registry entries older than ``heartbeat_timeout_ms``
        (each machine's ``_prune``: amortized O(1) off its expiry heap)."""
        now = self.sim.now
        for shard in self.shards:
            self._run_effects(shard.prune(now))

    def alive_statuses(self) -> List[NodeStatus]:
        """Statuses from every serving replica, pruned on read.

        Order is per-shard insertion order, concatenated shard-by-shard
        (not a global order once there are several shards: a caller
        ranking statuses sorts, or follows the driver's arrival order).
        """
        self.prune_stale()
        out: List[NodeStatus] = []
        for shard in self.shards:
            machine = shard.serving_machine()
            if machine is not None:
                out.extend(machine.registry.values())
        return out

    def known_node_ids(self) -> List[str]:
        out: List[str] = []
        for shard in self.shards:
            machine = shard.serving_machine() or shard.machines[shard.primary]
            out.extend(machine.registry)
        return out

    # ------------------------------------------------------------------
    # Edge discovery (global edge selection)
    # ------------------------------------------------------------------
    def discover(self, query: DiscoveryQuery) -> CandidateList:
        """Answer discovery via shard fan-out + cross-shard TopN merge.

        Raises:
            ControlPlaneUnavailable: a covering shard has no serving
                primary — the caller must treat this as "manager
                unreachable" (degraded fallback), never as an empty
                candidate list.
        """
        self.queries_served += 1
        now = self.sim.now

        def fetch(shard_index: int, radius_km: float) -> PartialSelection:
            machine = self.shards[shard_index].serving_machine()
            if machine is None:
                raise ControlPlaneUnavailable(shard_index)
            reply = self._step(
                machine,
                PartialDiscoveryRequested(now=now, stamp=now, query=query, radius_km=radius_km),
            )
            return PartialSelection(
                shard=shard_index, count=reply.count, statuses=reply.statuses
            )

        routed = self.router.select(query, fetch)
        if self.shard_map.count > 1 and self.tracer.enabled:
            emit_routing(self.tracer, now, query.user_id, routed)
        return CandidateList(
            user_id=query.user_id,
            node_ids=routed.node_ids,
            generated_at_ms=now,
            widened=routed.widened,
        )

    # ------------------------------------------------------------------
    # Resource-aware weighted round robin (baseline support)
    # ------------------------------------------------------------------
    def wrr_assign(self, query: DiscoveryQuery) -> Optional[str]:
        """Assign a user to a node by smooth weighted round robin over
        the latest availability scores of the merged alive population.

        Weights are the availability scores from the latest heartbeats —
        "the weight applied for each edge node is determined by the
        resource availability and utilization" (§V-B). Candidates are
        offered in the nodes' global arrival order, so ties break, and
        weights sum, the same way at any shard count.
        """
        alive = {s.node_id: s for s in self.alive_statuses() if s.node_id not in query.exclude}
        statuses = [alive.pop(n) for n in self._arrivals if n in alive]
        # Last, any node only a standby heard first (its primary was down).
        statuses += alive.values()
        if self._policy.node_predicate is not None:
            predicate = self._policy.node_predicate
            statuses = [s for s in statuses if predicate(s)]
        return smooth_wrr_pick(statuses, self._wrr_current)

    # ------------------------------------------------------------------
    # Failover (wired from shard-targeted fault actions)
    # ------------------------------------------------------------------
    def on_shard_outage_start(self, shard_index: int) -> bool:
        """A shard-targeted outage began: its primary goes dark, which
        the driver hears as that replica being unreachable. Returns
        whether the call took a replica down. Only an outage takes a
        sim replica down, so a shard with one down has an outage."""
        shard = self.shards[shard_index]
        if len(shard.alive_replicas()) < shard.replicas:
            return False  # overlapping outage rules: first victim stands
        self.replica_unreachable(shard_index, shard.primary)
        return True

    def on_shard_outage_end(self, shard_index: int) -> bool:
        """The outage lifted: the victim rejoins, re-seeded from the new
        primary's deduped snapshot if a standby was promoted meanwhile
        (else it resumes, registry intact). Returns whether a replica
        came back (False: no outage was active on the shard)."""
        shard = self.shards[shard_index]
        down = [r for r in range(shard.replicas) if shard.is_down(r)]
        if not down:
            return False
        source = self.rejoin_source(shard_index, down[0])
        entries = 0 if source is None else shard.sync_standby(down[0])
        self.replica_rejoined(shard_index, down[0], source, entries)
        return True

    # ------------------------------------------------------------------
    def _maybe_snapshot_sync(self) -> None:
        """Periodic standby snapshot sync, amortized against heartbeat
        traffic (no standing kernel timer: a self-rescheduling event
        would keep drain-style ``sim.run()`` calls from terminating)."""
        now = self.sim.now
        if now - self._last_snapshot_sync < SNAPSHOT_SYNC_PERIOD_MS:
            return
        self._last_snapshot_sync = now
        for shard in self.shards:
            if shard.replicas > 1 and shard.serving_index() is not None:
                shard.sync_all_standbys()

    def __repr__(self) -> str:
        return (
            f"CentralManager(shards={len(self.shards)}, "
            f"replicas={self.shards[0].replicas}, "
            f"nodes={len(self.known_node_ids())}, queries={self.queries_served})"
        )
