"""Replicated shards, snapshot/restore, and the tombstone regression.

The regression the snapshot path exists to prevent: the machine's lazy
expiry heap accumulates one ``(stamp, node_id)`` entry per heartbeat —
tombstones for re-registered node ids are only discarded when popped.
Serializing the heap verbatim into a handoff would carry those stale
entries to a machine whose stamp table was rebuilt from the same dump,
so a node id reused across incarnations could be expired (or kept) off
the wrong incarnation's clock. Snapshots therefore carry exactly one
(status, stamp) pair per live node and restores rebuild a minimal heap.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.controlplane.replication import ReplicatedShard
from repro.geo.geohash import encode
from repro.messages import DiscoveryQuery, NodeStatus
from repro.policy.global_policy import GlobalSelectionPolicy
from repro.protocol.effects import NodeExpired, ReplyPartialCandidates
from repro.protocol.events import HeartbeatReceived, PartialDiscoveryRequested, PruneTick
from repro.protocol.global_select import GlobalSelectionMachine, RegistrySnapshot

TIMEOUT = 100.0


def status_at(node_id: str, lat: float = 44.97, lon: float = -93.25) -> NodeStatus:
    return NodeStatus(
        node_id=node_id,
        lat=lat,
        lon=lon,
        geohash=encode(lat, lon, precision=9),
        cores=4,
        capacity_fps=30.0,
        attached_users=0,
        utilization=0.25,
    )


def machine() -> GlobalSelectionMachine:
    return GlobalSelectionMachine(GlobalSelectionPolicy(), heartbeat_timeout=TIMEOUT)


def make_shard(replicas: int) -> ReplicatedShard:
    return ReplicatedShard(0, [machine() for _ in range(replicas)])


def partial_ids(m: GlobalSelectionMachine, now: float) -> tuple:
    query = DiscoveryQuery(user_id="u", lat=44.97, lon=-93.25, top_n=3)
    replies = [
        e
        for e in m.handle(
            PartialDiscoveryRequested(now=now, stamp=now, query=query, radius_km=50.0)
        )
        if isinstance(e, ReplyPartialCandidates)
    ]
    return tuple(s.node_id for s in replies[0].statuses)


class TestSnapshotDedupe:
    def test_reregistered_node_snapshots_to_one_heap_entry(self):
        m = machine()
        m.handle(HeartbeatReceived(stamp=1.0, status=status_at("x")))
        m.handle(HeartbeatReceived(stamp=50.0, status=status_at("x")))
        assert len(m._expiry_heap) == 2  # the live entry plus a tombstone

        snapshot = m.snapshot_state()
        assert len(snapshot.statuses) == 1
        assert snapshot.stamps == {"x": 50.0}

        restored = machine()
        restored.restore_state(snapshot)
        assert len(restored._expiry_heap) == 1
        assert restored._expiry_heap[0] == (50.0, "x")

    def test_handoff_never_resurrects_expired_node(self):
        """Node-id reuse across a handoff: the old incarnation's expiry
        must not leak onto the new incarnation's clock."""
        m = machine()
        m.handle(HeartbeatReceived(stamp=1.0, status=status_at("x")))
        # The first incarnation expires...
        effects = m.handle(PruneTick(stamp=1.0 + TIMEOUT + 1.0))
        assert any(
            isinstance(e, NodeExpired) and e.node_id == "x" for e in effects
        )
        # ...and the id is reused by a new incarnation mid-handoff.
        m.handle(HeartbeatReceived(stamp=150.0, status=status_at("x")))

        restored = machine()
        restored.restore_state(m.snapshot_state())
        # Old tombstone gone: pruning at a time that would pop the stale
        # (1.0, "x") entry leaves the new incarnation alive.
        assert not restored.handle(PruneTick(stamp=150.0 + TIMEOUT - 1.0))
        assert "x" in restored.registry
        # The new incarnation still expires on its own clock.
        effects = restored.handle(PruneTick(stamp=150.0 + TIMEOUT + 1.0))
        assert any(
            isinstance(e, NodeExpired) and e.node_id == "x" for e in effects
        )
        assert "x" not in restored.registry

    def test_snapshot_validates_id_stamp_agreement(self):
        with pytest.raises(ValueError):
            RegistrySnapshot(statuses=(status_at("a"),), stamps={"b": 1.0})
        with pytest.raises(ValueError):
            RegistrySnapshot(
                statuses=(status_at("a"), status_at("a")),
                stamps={"a": 1.0},
            )

    def test_a_refused_restore_changes_nothing(self):
        """A snapshot the index cannot key is refused whole: the second
        status's geohash ``"AB"`` is refused before the registry, the
        index or the stamps are cleared."""
        m = machine()
        for i in range(3):
            m.handle(HeartbeatReceived(stamp=float(i), status=status_at(f"n{i}", lat=44.9 + 0.01 * i)))
        before = m.snapshot_state()
        answer = partial_ids(m, now=5.0)
        bad = RegistrySnapshot(
            statuses=(status_at("n7"), dataclasses.replace(status_at("n8"), geohash="AB")),
            stamps={"n7": 6.0, "n8": 6.0},
        )
        with pytest.raises(ValueError, match="'AB'"):
            m.restore_state(bad)
        assert sorted(m.registry) == ["n0", "n1", "n2"]
        assert m.snapshot_state() == before
        assert len(m.spatial_index) == 3
        assert partial_ids(m, now=5.0) == answer


class TestReplicatedShard:
    def test_heartbeats_replicate_to_all_alive(self):
        shard = make_shard(3)
        shard.apply_heartbeat(1.0, status_at("a"))
        for m in shard.machines:
            assert "a" in m.registry

    def test_standby_never_serves_until_promoted(self):
        shard = make_shard(2)
        shard.apply_heartbeat(1.0, status_at("a"))
        shard.mark_down(0)
        assert shard.serving_index() is None
        assert shard.serving_machine() is None
        promoted = shard.promote()
        assert promoted == 1
        assert shard.serving_index() == 1
        assert partial_ids(shard.serving_machine(), now=2.0) == ("a",)

    def test_promoted_standby_answers_identically(self):
        shard = make_shard(2)
        for i in range(5):
            shard.apply_heartbeat(float(i), status_at(f"n{i}", lat=44.9 + 0.01 * i))
        before = partial_ids(shard.machines[0], now=10.0)
        shard.mark_down(0)
        shard.promote()
        assert partial_ids(shard.serving_machine(), now=10.0) == before

    def test_downed_replica_misses_deltas_until_synced(self):
        shard = make_shard(2)
        shard.mark_down(1)
        shard.apply_heartbeat(1.0, status_at("a"))
        assert "a" not in shard.machines[1].registry
        shard.mark_up(1)
        entries = shard.sync_standby(1)
        assert entries == 1
        assert "a" in shard.machines[1].registry

    def test_sync_requires_serving_primary_and_distinct_target(self):
        shard = make_shard(2)
        with pytest.raises(ValueError):
            shard.sync_standby(shard.primary)
        shard.mark_down(shard.primary)
        with pytest.raises(RuntimeError):
            shard.sync_standby(1)

    def test_promote_with_no_alive_replicas_returns_none(self):
        shard = make_shard(2)
        shard.mark_down(0)
        shard.mark_down(1)
        assert shard.promote() is None
        assert shard.serving_index() is None
