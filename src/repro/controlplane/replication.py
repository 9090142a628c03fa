"""Per-shard primary/standby registry replication.

Pure replica-set state over :class:`GlobalSelectionMachine` instances —
no clocks, no transports. Replication is two-tier, mirroring the wire
design of the live driver:

- **heartbeat-piggybacked deltas**: every node heartbeat routed to a
  shard is applied to *all* alive replicas, so standbys track the
  primary entry-by-entry at no extra message cost (the heartbeat was
  already in flight);
- **periodic snapshots**: :meth:`ReplicatedShard.sync_standby` re-seeds
  a standby from the primary's deduplicated
  :class:`~repro.protocol.global_select.RegistrySnapshot`, bounding
  divergence after a replica was down (a rejoin handoff) and repairing
  any deltas it missed.

Only the primary *serves* (discovery phases, WRR), so a shard whose
primary is down is unavailable until the shared
:class:`~repro.protocol.driver.ManagerDriver` — which owns failure
detection and timing — promotes a standby.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set

from repro.messages import NodeStatus
from repro.protocol.effects import Effect
from repro.protocol.events import HeartbeatReceived, ProtocolEvent, PruneTick
from repro.protocol.global_select import GlobalSelectionMachine

__all__ = ["ReplicaSet", "ReplicatedShard"]


class ReplicaSet:
    """Which of a shard's replicas are up and which one serves.

    The membership half of a shard, with no registry attached: the sim
    driver holds it through :class:`ReplicatedShard`, the live router
    holds it bare (its replicas are processes behind sockets). Either
    way "at most one serving primary" is this class's invariant.
    """

    def __init__(self, replicas: int) -> None:
        if replicas < 1:
            raise ValueError("a shard needs at least one replica")
        self.replicas = replicas
        self.primary = 0
        self._down: Set[int] = set()

    def is_down(self, replica: int) -> bool:
        return replica in self._down

    def alive_replicas(self) -> List[int]:
        return [i for i in range(self.replicas) if i not in self._down]

    def serving_index(self) -> Optional[int]:
        """The replica currently allowed to answer queries, or None.

        Only the primary serves; between a primary loss and the
        promotion the shard is deliberately unavailable (split-brain
        avoidance beats availability here).
        """
        return None if self.primary in self._down else self.primary

    def mark_down(self, replica: int) -> None:
        if not 0 <= replica < self.replicas:
            raise ValueError(f"replica {replica} out of range")
        self._down.add(replica)

    def mark_up(self, replica: int) -> None:
        self._down.discard(replica)

    def promote(self) -> Optional[int]:
        """Promote the lowest-indexed alive replica to primary.

        Returns the new primary index, or None when every replica is
        down (the shard stays unavailable). Idempotent: promoting while
        the primary is alive re-selects it.
        """
        alive = self.alive_replicas()
        if not alive:
            return None
        self.primary = alive[0]
        return self.primary


class ReplicatedShard(ReplicaSet):
    """One shard's replica set: a primary plus warm standbys."""

    def __init__(
        self, shard_index: int, machines: Sequence[GlobalSelectionMachine]
    ) -> None:
        super().__init__(len(machines))
        self.shard_index = shard_index
        self.machines: List[GlobalSelectionMachine] = list(machines)

    def serving_machine(self) -> Optional[GlobalSelectionMachine]:
        index = self.serving_index()
        return None if index is None else self.machines[index]

    # ------------------------------------------------------------------
    # Replication
    # ------------------------------------------------------------------
    def _replicate(self, event: ProtocolEvent) -> List[Effect]:
        """Step every alive replica; return the serving one's effects."""
        serving = self.serving_index()
        out: List[Effect] = []
        for index in self.alive_replicas():
            effects = self.machines[index].handle(event)
            if index == serving:
                out = effects
        return out

    def apply_heartbeat(self, stamp: float, status: NodeStatus) -> List[Effect]:
        """Apply one heartbeat to every alive replica (delta replication).

        Returns the serving replica's effects (for the driver's arrival
        order and hooks); standby effects are identical by construction
        and dropped. With the primary down the deltas still warm the
        standbys, but nothing is reported — the shard is not serving.
        """
        return self._replicate(HeartbeatReceived(stamp=stamp, status=status))

    def prune(self, stamp: float) -> List[Effect]:
        """Expire stale entries on every alive replica (same contract as
        :meth:`apply_heartbeat`: the serving replica's effects)."""
        return self._replicate(PruneTick(stamp=stamp))

    def sync_standby(self, replica: int) -> int:
        """Re-seed one standby from the primary's deduped snapshot.

        Returns the number of registry entries copied. Raises when the
        shard has no serving primary or ``replica`` *is* the primary.
        """
        serving = self.serving_machine()
        if serving is None:
            raise RuntimeError(
                f"shard {self.shard_index} has no serving primary to sync from"
            )
        if replica == self.primary:
            raise ValueError("cannot sync the primary from itself")
        snapshot = serving.snapshot_state()
        self.machines[replica].restore_state(snapshot)
        return len(snapshot.statuses)

    def sync_all_standbys(self) -> int:
        """Periodic snapshot pass over every alive standby."""
        copied = 0
        for index in self.alive_replicas():
            if index != self.primary:
                copied += self.sync_standby(index)
        return copied

    def __repr__(self) -> str:
        return (
            f"ReplicatedShard(shard={self.shard_index}, primary={self.primary}, "
            f"alive={self.alive_replicas()})"
        )
