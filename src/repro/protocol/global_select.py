"""The Central Manager role as a sans-IO state machine.

Step 1 of the paper's 2-step approach: maintain the registry of alive
edge nodes from heartbeats, age out silent ones, and answer discovery
queries with the geo-filtered, availability-ranked TopN candidate list.
The resource-aware baseline's smooth WRR (:func:`smooth_wrr_pick`) runs
in the sim ``CentralManager`` over all shards, so its ledger is not
machine state.

The machine owns the geohash spatial index — which stores each
registered status once and is the registry: :attr:`registry` is a
read-only view of it — and the stamps and expiry heap that age nodes
out; drivers own transports (sim method calls vs. JSON-framed
TCP), address books, clocks and reputation wiring. Time enters only as
opaque ``stamp`` values that the machine compares against each other —
the sim backend passes simulated milliseconds, the live backend passes
``time.monotonic()`` seconds, and the machine cannot tell the
difference.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import isfinite
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.geo.spatial_index import GeohashSpatialIndex, StatusView
from repro.messages import NodeStatus
from repro.policy.global_policy import GlobalSelectionPolicy
from repro.protocol.effects import (
    Effect,
    NodeExpired,
    NodeOnline,
    ReplyCandidates,
    ReplyPartialCandidates,
)
from repro.protocol.events import (
    DiscoveryRequested,
    HeartbeatReceived,
    PartialDiscoveryRequested,
    ProtocolEvent,
    PruneTick,
)

__all__ = ["GlobalSelectionMachine", "RegistrySnapshot", "smooth_wrr_pick"]

#: The float fields of a heartbeat the wire holds finite, in declaration
#: order: the first one that is not names the refusal, as on the wire.
_FINITE_FIELDS = ("lat", "lon", "capacity_fps", "utilization", "reported_at_ms")


@dataclass(frozen=True)
class RegistrySnapshot:
    """A deduplicated serialization of one machine's registry state.

    Exactly one ``(status, stamp)`` pair per live node — never the raw
    expiry heap. The heap retains lazily-deleted tombstones for node
    ids that re-registered (every heartbeat pushes a new entry and the
    superseded ones are only discarded when popped), so serializing it
    verbatim would let a registry handoff carry stale ``(stamp, id)``
    entries to a machine whose ``_stamps`` dict was rebuilt from the
    same dump — the tombstone would then match the live stamp and a
    later heartbeat's reuse of the node id could expire (or worse,
    resurrect) the wrong incarnation. Restores rebuild a minimal heap
    from ``stamps`` instead.
    """

    statuses: Tuple[NodeStatus, ...]
    stamps: Dict[str, float]

    def __post_init__(self) -> None:
        ids = {s.node_id for s in self.statuses}
        if len(ids) != len(self.statuses) or ids != set(self.stamps):
            raise ValueError(
                "snapshot must carry exactly one status+stamp per node id"
            )


def smooth_wrr_pick(
    statuses: Sequence[NodeStatus], ledger: Dict[str, float]
) -> Optional[str]:
    """One round of smooth (nginx-style) weighted round robin.

    Every candidate gains its weight — its availability score — in
    ``ledger``; the richest is picked and pays back the total. None
    when there is no candidate.
    """
    if not statuses:
        return None
    total = 0.0
    weights: Dict[str, float] = {}
    for status in statuses:
        weight = max(status.availability_score, 0.01)
        weights[status.node_id] = weight
        total += weight
    best_id: Optional[str] = None
    best_value = float("-inf")
    for node_id, weight in weights.items():
        current = ledger.get(node_id, 0.0) + weight
        ledger[node_id] = current
        if current > best_value:
            best_value = current
            best_id = node_id
    assert best_id is not None
    ledger[best_id] -= total
    return best_id


class GlobalSelectionMachine:
    """Sans-IO Central Manager: events in, effects out.

    Args:
        policy: the composed global selection policy (geo filter + sort
            key + optional node predicate); replaceable to restrict
            pools (e.g. dedicated-only scenarios).
        heartbeat_timeout: registry entries whose newest stamp is older
            than this (in the driver's stamp units) age out.
    """

    def __init__(
        self, policy: GlobalSelectionPolicy, heartbeat_timeout: float
    ) -> None:
        self.policy = policy
        self.heartbeat_timeout = heartbeat_timeout
        #: Geohash-bucketed spatial index over the registered statuses,
        #: maintained incrementally on heartbeat/expiry so discovery
        #: never scans the full registry (the metro-scale fast path).
        self.spatial_index: GeohashSpatialIndex[NodeStatus] = GeohashSpatialIndex()
        #: node_id -> newest status, in order of first registration: a
        #: read-only view of the index, the one place a status is kept.
        self.registry: Mapping[str, NodeStatus] = StatusView(self.spatial_index)
        #: Min-heap of (stamp, node_id): the oldest heartbeat is always
        #: on top, so expiring stale nodes pops only actually-stale
        #: entries (amortized O(1) per query) instead of scanning all N.
        #: Entries superseded by fresher heartbeats are lazily discarded,
        #: and compacted away once they outnumber the live ones.
        self._expiry_heap: List[Tuple[float, str]] = []
        #: node_id -> newest heartbeat stamp (the lazy-deletion check),
        #: for exactly the ids the index holds.
        self._stamps: Dict[str, float] = {}

    # ------------------------------------------------------------------
    def handle(self, event: ProtocolEvent) -> List[Effect]:
        """Advance the machine by one input event; return the effects."""
        if isinstance(event, HeartbeatReceived):
            return self._on_heartbeat(event)
        if isinstance(event, DiscoveryRequested):
            return self._on_discovery(event)
        if isinstance(event, PartialDiscoveryRequested):
            return self._on_partial_discovery(event)
        if isinstance(event, PruneTick):
            return self._prune(event.stamp)
        raise TypeError(
            f"GlobalSelectionMachine cannot handle {type(event).__name__}"
        )

    # ------------------------------------------------------------------
    # Registry maintenance
    # ------------------------------------------------------------------
    def _on_heartbeat(self, event: HeartbeatReceived) -> List[Effect]:
        """Register or refresh a node.

        Raises:
            ValueError: a position, capacity, utilization or report time
                is not finite (as ``from_wire`` words it), or the index
                cannot key the status's geohash (too short for a
                position, or not a geohash). Nothing has changed then:
                both refuse before the index writes, and it goes first —
                a stamp for a node it refused would have no status to
                expire.
        """
        status = event.status
        if not (isfinite(status.lat) and isfinite(status.lon)
                and isfinite(status.capacity_fps) and isfinite(status.utilization)
                and isfinite(status.reported_at_ms)):
            name = next(n for n in _FINITE_FIELDS if not isfinite(getattr(status, n)))
            raise ValueError(f"NodeStatus.{name}: not a float: {getattr(status, name)!r}")
        node_id = status.node_id
        new = node_id not in self._stamps
        self.spatial_index.insert(status)
        self._stamps[node_id] = event.stamp
        heapq.heappush(self._expiry_heap, (event.stamp, node_id))
        if len(self._expiry_heap) > 2 * len(self._stamps) + 8:
            # With a long timeout nothing is ever old enough to pop:
            # one superseded tuple per heartbeat, for ever.
            self._rebuild_expiry_heap()
        return [NodeOnline(node_id, new=new)]

    def _rebuild_expiry_heap(self) -> None:
        """One entry per live node: its newest stamp."""
        self._expiry_heap[:] = [(stamp, node_id) for node_id, stamp in self._stamps.items()]
        heapq.heapify(self._expiry_heap)

    def _prune(self, stamp: float) -> List[Effect]:
        """Expire registry entries older than the heartbeat timeout.

        A dead node silently ages out after the timeout, which is
        exactly the window in which discovery can still hand out a dead
        candidate (the client tolerates this: probes to it fail and it
        is skipped).
        """
        effects: List[Effect] = []
        heap = self._expiry_heap
        while heap and stamp - heap[0][0] > self.heartbeat_timeout:
            entry_stamp, node_id = heapq.heappop(heap)
            if self._stamps.get(node_id) != entry_stamp:
                continue  # superseded by a fresher heartbeat (or already expired)
            self._drop(node_id)
            effects.append(NodeExpired(node_id))
        return effects

    def _drop(self, node_id: str) -> None:
        self.spatial_index.remove(node_id)
        self._stamps.pop(node_id, None)

    # ------------------------------------------------------------------
    # Edge discovery (global edge selection)
    # ------------------------------------------------------------------
    def _on_discovery(self, event: DiscoveryRequested) -> List[Effect]:
        """Answer a discovery query with the TopN candidate list.

        Stale entries are expired first (amortized O(1)), then
        selection runs against the spatial index — per-cell candidate
        lookups instead of a full-registry scan, so query cost scales
        with local density rather than metro population.
        """
        effects = self._prune(event.stamp)
        node_ids, widened = self.policy.select(event.query, index=self.spatial_index)
        effects.append(
            ReplyCandidates(
                node_ids=tuple(node_ids),
                widened=widened,
                generated_at_ms=event.now,
            )
        )
        return effects

    def _on_partial_discovery(
        self, event: PartialDiscoveryRequested
    ) -> List[Effect]:
        """Answer one fixed-radius phase of a cross-shard discovery.

        The control-plane router pins the radius and merges the per-shard
        counts/TopNs; this machine only ever sees its own shard's slice
        of the registry.
        """
        effects = self._prune(event.stamp)
        count, best = self.policy.select_partial(
            event.query, index=self.spatial_index, radius_km=event.radius_km
        )
        effects.append(
            ReplyPartialCandidates(
                count=count,
                statuses=tuple(best),
                radius_km=event.radius_km,
                generated_at_ms=event.now,
            )
        )
        return effects

    # ------------------------------------------------------------------
    # Replication / handoff support (control plane)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> RegistrySnapshot:
        """Serialize the registry for replication or shard handoff.

        Deduplicated by construction: one status and one newest stamp
        per node id (see :class:`RegistrySnapshot` for why the raw
        expiry heap — tombstones and all — must never travel).
        """
        return RegistrySnapshot(
            statuses=tuple(self.registry.values()),
            stamps=dict(self._stamps),
        )

    def restore_state(self, snapshot: RegistrySnapshot) -> None:
        """Replace this machine's registry with a snapshot's contents.

        The expiry heap is rebuilt with exactly one entry per node, so a
        restored standby (or handoff target) can never expire a node off
        a tombstone left by an earlier incarnation of the same id.

        Raises:
            ValueError: the index cannot key one of the statuses (see
                :meth:`_on_heartbeat`). Nothing has changed then: every
                status is checked before anything is cleared, so a
                restore is all or nothing.
        """
        for status in snapshot.statuses:
            self.spatial_index.check(status)
        self.spatial_index.clear()
        self._stamps.clear()
        for status in snapshot.statuses:
            self.spatial_index.insert(status)
        self._stamps.update(snapshot.stamps)
        self._rebuild_expiry_heap()

    def __repr__(self) -> str:
        return f"GlobalSelectionMachine(nodes={len(self.registry)})"
