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

Failure model (driven by shard-targeted ``ManagerOutage`` rules via
``EdgeSystem._apply_fault_action``):

- ``on_shard_outage_start`` takes the shard's current primary down.
  Until promotion the shard serves nothing: a discovery touching it
  raises :class:`ControlPlaneUnavailable` and the client rides the
  existing ``DiscoveryFailed`` -> degraded-fallback path.
- After ``promotion_delay_ms`` (the failure-detection window) a kernel
  timer promotes the lowest alive standby and emits ``manager_promote``.
- ``on_shard_outage_end`` revives the downed replica; if a standby was
  promoted meanwhile, the returnee is re-seeded from the new primary's
  deduplicated snapshot and rejoins as standby (``registry_handoff``).

Driver-owned extras: query/heartbeat counters and the optional
reputation tracker fed from ``NodeOnline``/``NodeExpired`` effects.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.controlplane.errors import ControlPlaneUnavailable
from repro.controlplane.replication import ReplicatedShard
from repro.controlplane.router import PartialSelection, ShardRouter, emit_routing
from repro.controlplane.sharding import ShardMap
from repro.messages import CandidateList, DiscoveryQuery, NodeStatus
from repro.obs.events import ManagerPromote, RegistryHandoff
from repro.policy.global_policy import GlobalSelectionPolicy
from repro.protocol.effects import (
    Effect,
    NodeExpired,
    NodeOnline,
    ReplyPartialCandidates,
)
from repro.protocol.events import HeartbeatReceived, NodeForgotten, PartialDiscoveryRequested
from repro.protocol.global_select import GlobalSelectionMachine, smooth_wrr_pick

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.policy.reputation import ReputationTracker
    from repro.core.system import EdgeSystem

#: Period of the standby snapshot-sync timer (bounds divergence when a
#: standby missed deltas; a no-op while deltas keep replicas identical).
SNAPSHOT_SYNC_PERIOD_MS = 5_000.0


class CentralManager:
    """Registry of alive edge nodes + the global selection policy.

    Args:
        system: owning system: its clock, tracer, config (the shape)
            and fault plan.
        policy: the composed global selection policy (e.g. restricted
            to dedicated nodes).
        reputation: optional tracker fed node appearances and silent
            departures (install its sort key on the policy to act on
            the scores; see policies/reputation.py).

    Raises:
        ValueError: the system's fault plan takes down a shard this
            manager does not have.
    """

    def __init__(
        self,
        system: "EdgeSystem",
        policy: Optional[GlobalSelectionPolicy] = None,
        reputation: Optional["ReputationTracker"] = None,
    ) -> None:
        config = system.config
        shards = config.control_plane_shards
        targets = system.faults.plan.shard_targets() if system.faults is not None else []
        if targets and targets[-1] >= shards:
            raise ValueError(
                f"plan targets shard {targets[-1]} of a {shards}-shard manager"
            )
        self.system = system
        self._policy = policy or GlobalSelectionPolicy()
        self.shard_map = ShardMap(count=shards)
        self.router = ShardRouter(self.shard_map, self._policy)
        self.shards = self._empty_shards(shards, config.control_plane_replicas)
        self.reputation = reputation
        self.queries_served = 0
        self.heartbeats_received = 0
        #: Heartbeats dropped because the owning shard had no alive replica.
        self.heartbeats_dropped = 0
        self.promotions = 0
        #: Primary-loss detection window before a standby is promoted.
        #: Reuses the system's failure-detection budget: the control
        #: plane notices a dead primary as fast as clients notice a dead
        #: edge node.
        self.promotion_delay_ms = config.failure_detection_ms
        #: shard -> replica taken down by the active outage rule.
        self._outage_victim: Dict[int, int] = {}
        # Smooth-WRR state lives in the driver: the baseline's round
        # robin is global across shards, so no single machine can own it.
        self._wrr_current: Dict[str, float] = {}
        self._last_snapshot_sync = 0.0

    def _empty_shards(self, shards: int, replicas: int) -> List[ReplicatedShard]:
        timeout = self.system.config.heartbeat_timeout_ms
        return [
            ReplicatedShard(
                index,
                [
                    GlobalSelectionMachine(self._policy, heartbeat_timeout=timeout)
                    for _ in range(replicas)
                ],
            )
            for index in range(shards)
        ]

    @property
    def policy(self) -> GlobalSelectionPolicy:
        return self._policy

    def _run_effects(self, effects: List[Effect]) -> Optional[Effect]:
        """Execute registry effects in order; return the reply (if any)."""
        reply: Optional[Effect] = None
        for effect in effects:
            if isinstance(effect, NodeOnline):
                if self.reputation is not None:
                    self.reputation.record_online(effect.node_id, self.system.sim.now)
            elif isinstance(effect, NodeExpired):
                self._wrr_current.pop(effect.node_id, None)
                if self.reputation is not None:
                    self.reputation.record_departure(
                        effect.node_id, self.system.sim.now
                    )
            elif isinstance(effect, ReplyPartialCandidates):
                reply = effect
            else:  # pragma: no cover - forward-compatibility guard
                raise TypeError(f"unhandled effect {type(effect).__name__}")
        return reply

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

    def forget_node(self, node_id: str) -> None:
        """Administrative deregistration (ownership unknown without the
        status, so every replica is told; extra calls are no-ops)."""
        self._wrr_current.pop(node_id, None)
        for shard in self.shards:
            for machine in shard.machines:
                machine.handle(NodeForgotten(node_id))

    def prune_stale(self) -> None:
        """Expire registry entries older than ``heartbeat_timeout_ms``
        (each machine's ``_prune``: amortized O(1) off its expiry heap)."""
        now = self.system.sim.now
        for shard in self.shards:
            self._run_effects(shard.prune(now))

    def alive_statuses(self) -> List[NodeStatus]:
        """Statuses from every serving replica, pruned on read.

        Order is per-shard insertion order, concatenated shard-by-shard
        (deterministic, but not a global insertion order once there are
        several shards — callers ranking statuses must sort, as the
        policies do).
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
        now = self.system.sim.now

        def fetch(shard_index: int, radius_km: float) -> PartialSelection:
            machine = self.shards[shard_index].serving_machine()
            if machine is None:
                raise ControlPlaneUnavailable(shard_index)
            reply = self._run_effects(
                machine.handle(
                    PartialDiscoveryRequested(
                        now=now, stamp=now, query=query, radius_km=radius_km
                    )
                )
            )
            assert isinstance(reply, ReplyPartialCandidates)
            return PartialSelection(
                shard=shard_index, count=reply.count, statuses=reply.statuses
            )

        routed = self.router.select(query, fetch)
        if self.shard_map.count > 1 and self.system.trace.enabled:
            emit_routing(self.system.trace, now, query.user_id, routed)
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
        resource availability and utilization" (§V-B).
        """
        statuses = [
            s for s in self.alive_statuses() if s.node_id not in query.exclude
        ]
        if self._policy.node_predicate is not None:
            predicate = self._policy.node_predicate
            statuses = [s for s in statuses if predicate(s)]
        return smooth_wrr_pick(statuses, self._wrr_current)

    # ------------------------------------------------------------------
    # Failover (wired from shard-targeted fault actions)
    # ------------------------------------------------------------------
    def on_shard_outage_start(self, shard_index: int) -> bool:
        """A shard-targeted outage began: its primary goes dark.

        Promotion is scheduled after the detection window; until then
        the shard is unavailable and clients degrade gracefully.
        Returns whether the call took a replica down.
        """
        shard = self.shards[shard_index]
        if shard_index in self._outage_victim:
            return False  # overlapping outage rules: first victim stands
        victim = shard.primary
        shard.mark_down(victim)
        self._outage_victim[shard_index] = victim
        if len(shard.alive_replicas()) > 0:
            self.system.sim.schedule(
                self.promotion_delay_ms,
                lambda: self._promote(shard_index),
                label=f"controlplane.promote.s{shard_index}",
            )
        return True

    def _promote(self, shard_index: int) -> None:
        shard = self.shards[shard_index]
        if shard.serving_index() is not None:
            return  # primary came back inside the detection window
        new_primary = shard.promote()
        if new_primary is None:
            return  # every replica down; stay unavailable
        self.promotions += 1
        self.system.trace.emit(
            ManagerPromote(
                self.system.sim.now,
                shard=shard_index,
                replica=new_primary,
                reason="outage",
            )
        )

    def on_shard_outage_end(self, shard_index: int) -> bool:
        """The outage lifted: the victim replica comes back.

        If a standby was promoted meanwhile the returnee rejoins as a
        standby, re-seeded from the new primary's deduped snapshot (a
        ``registry_handoff``); with no promotion (replicas=1) the old
        primary simply resumes with its registry intact. Returns whether
        a replica came back (False: no outage was active on the shard).
        """
        victim = self._outage_victim.pop(shard_index, None)
        if victim is None:
            return False
        shard = self.shards[shard_index]
        shard.mark_up(victim)
        if shard.primary == victim:
            return True  # no promotion happened; the old primary resumes
        entries = shard.sync_standby(victim)
        self.system.trace.emit(
            RegistryHandoff(
                self.system.sim.now,
                source=f"shard{shard_index}/r{shard.primary}",
                target=f"shard{shard_index}/r{victim}",
                entries=entries,
                epoch=self.shard_map.epoch,
                reason="rejoin",
            )
        )
        return True

    # ------------------------------------------------------------------
    # Shard-map epoch change (registry handoff)
    # ------------------------------------------------------------------
    def apply_shard_map(self, new_map: ShardMap) -> None:
        """Install a successor shard map, redistributing the registry.

        Every entry travels via a deduplicated snapshot and is re-applied
        as a heartbeat at its original stamp, so expiry semantics carry
        over and no tombstone can resurrect an expired node.
        """
        if new_map.epoch <= self.shard_map.epoch:
            raise ValueError(
                f"new map epoch {new_map.epoch} must exceed "
                f"current {self.shard_map.epoch}"
            )
        new_shards = self._empty_shards(new_map.count, self.shards[0].replicas)
        now = self.system.sim.now
        moved: Dict[Tuple[int, int], int] = {}
        for old_shard in self.shards:
            machine = old_shard.serving_machine() or old_shard.machines[old_shard.primary]
            snapshot = machine.snapshot_state()
            for status in snapshot.statuses:
                target = new_map.owner_of_geohash(status.geohash)
                stamp = snapshot.stamps[status.node_id]
                for replica_machine in new_shards[target].machines:
                    replica_machine.handle(HeartbeatReceived(stamp=stamp, status=status))
                key = (old_shard.shard_index, target)
                moved[key] = moved.get(key, 0) + 1
        for (source, target), entries in sorted(moved.items()):
            self.system.trace.emit(
                RegistryHandoff(
                    now,
                    source=f"shard{source}",
                    target=f"shard{target}",
                    entries=entries,
                    epoch=new_map.epoch,
                    reason="epoch",
                )
            )
        self.shards = new_shards
        self.shard_map = new_map
        self.router = ShardRouter(new_map, self._policy)
        self._outage_victim.clear()

    # ------------------------------------------------------------------
    def _maybe_snapshot_sync(self) -> None:
        """Periodic standby snapshot sync, amortized against heartbeat
        traffic (no standing kernel timer: a self-rescheduling event
        would keep drain-style ``sim.run()`` calls from terminating)."""
        now = self.system.sim.now
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
