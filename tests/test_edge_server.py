"""Unit tests for the edge node server: probing APIs, seqNum join
protocol, what-if cache triggers, performance monitor, failure."""

import dataclasses

import pytest

from repro.core.config import SystemConfig
from repro.core.system import EdgeSystem
from repro.geo import geohash
from repro.geo.point import GeoPoint
from repro.net.topology import EndpointSpec
from repro.nodes.hardware import profile_by_name
from repro.nodes.host_workload import HostWorkload, HostWorkloadSchedule
from repro.protocol.admission import COMMON_RTT_MS


@pytest.fixture
def system():
    return EdgeSystem(SystemConfig(seed=1))


@pytest.fixture
def node(system):
    return system.add_node(
        "V1",
        profile_by_name("V1"),
        EndpointSpec(GeoPoint(44.98, -93.26)),
    )


def test_starts_alive_with_primed_cache(system, node):
    system.run_for(100.0)
    assert node.alive
    # the priming test workload measured an idle frame
    assert node.what_if_ms >= node.profile.base_frame_ms
    assert node.test_workload_invocations >= 1


def test_process_probe_returns_cached_values(system, node):
    system.run_for(100.0)
    reply = node.process_probe()
    assert reply is not None
    assert reply.node_id == "V1"
    assert reply.what_if_ms == node.what_if_ms
    assert reply.seq_num == node.seq_num
    assert reply.attached_users == 0


def test_probe_does_not_invoke_test_workload(system, node):
    system.run_for(100.0)
    invocations = node.test_workload_invocations
    for _ in range(50):
        node.process_probe()
    assert node.test_workload_invocations == invocations
    assert node.probes_served == 50


# ----------------------------------------------------------------------
# Join synchronization (Algorithm 1)
# ----------------------------------------------------------------------
def test_join_with_matching_seq_accepted(system, node):
    system.run_for(100.0)
    seq = node.seq_num
    reply = node.join("u1", seq, fps=20.0)
    assert reply.accepted
    assert node.seq_num == seq + 1
    assert "u1" in node.attached


def test_join_with_stale_seq_rejected(system, node):
    system.run_for(100.0)
    stale = node.seq_num - 1
    reply = node.join("u1", stale, fps=20.0)
    assert not reply.accepted
    assert "u1" not in node.attached
    assert node.joins_rejected == 1


def test_simultaneous_joins_serialize(system, node):
    """Two users probing the same seq: only the first join lands."""
    system.run_for(100.0)
    seq = node.seq_num
    first = node.join("u1", seq, fps=20.0)
    second = node.join("u2", seq, fps=20.0)
    assert first.accepted
    assert not second.accepted
    assert list(node.attached) == ["u1"]


def test_join_schedules_delayed_test_workload(system, node):
    system.run_for(100.0)
    invocations = node.test_workload_invocations
    node.join("u1", node.seq_num, fps=20.0)
    # not yet: delayed by 2x common RTT
    assert node.test_workload_invocations == invocations
    system.run_for(2 * COMMON_RTT_MS + 1)
    assert node.test_workload_invocations == invocations + 1


def test_unexpected_join_cannot_be_rejected(system, node):
    system.run_for(100.0)
    seq = node.seq_num
    assert node.unexpected_join("u1", fps=20.0).accepted
    assert node.seq_num == seq + 1
    assert "u1" in node.attached


def test_leave_triggers_state_change(system, node):
    system.run_for(100.0)
    node.unexpected_join("u1", fps=20.0)
    system.run_for(500.0)
    seq = node.seq_num
    invocations = node.test_workload_invocations
    node.leave("u1")
    assert "u1" not in node.attached
    assert node.seq_num == seq + 1
    system.run_for(500.0)
    assert node.test_workload_invocations > invocations


def test_leave_unknown_user_is_noop(system, node):
    system.run_for(100.0)
    seq = node.seq_num
    node.leave("ghost")
    assert node.seq_num == seq


# ----------------------------------------------------------------------
# What-if cache semantics
# ----------------------------------------------------------------------
def test_what_if_reflects_attached_demand(system, node):
    system.run_for(100.0)
    idle_whatif = node.what_if_ms
    for i in range(4):
        node.unexpected_join(f"u{i}", fps=20.0)
    system.run_for(1_000.0)
    assert node.what_if_ms > idle_whatif


def test_stay_projection_below_whatif_under_load(system, node):
    system.run_for(100.0)
    for i in range(4):
        node.unexpected_join(f"u{i}", fps=20.0)
    system.run_for(1_000.0)
    # staying (n users) must look no worse than joining fresh (n+1)
    assert node.stay_ms <= node.what_if_ms + 1e-9


def test_idle_cache_recovers_after_users_leave(system, node):
    system.run_for(100.0)
    for i in range(5):
        node.unexpected_join(f"u{i}", fps=20.0)
    system.run_for(1_000.0)
    loaded = node.what_if_ms
    for i in range(5):
        node.leave(f"u{i}")
    system.run_for(5_000.0)  # perf monitor refreshes the stale cache
    assert node.what_if_ms < loaded


# ----------------------------------------------------------------------
# Failure
# ----------------------------------------------------------------------
def test_failed_node_rejects_everything(system, node):
    system.run_for(100.0)
    node.fail()
    assert not node.alive
    assert node.failed_at_ms == system.sim.now
    assert node.process_probe() is None
    assert not node.join("u1", node.seq_num, fps=20.0).accepted
    assert not node.unexpected_join("u1", fps=20.0).accepted
    assert node.receive_frame(None, system.sim.now) is None


def test_fail_is_idempotent(system, node):
    node.fail()
    at = node.failed_at_ms
    system.run_for(100.0)
    node.fail()
    assert node.failed_at_ms == at


def test_failed_node_stops_heartbeating(system, node):
    system.run_for(2_000.0)
    node.fail()
    system.run_for(100.0)  # drain any in-flight heartbeat delivery
    before = system.manager.heartbeats_received
    system.run_for(5_000.0)
    assert system.manager.heartbeats_received == before


# ----------------------------------------------------------------------
# Host workload interference
# ----------------------------------------------------------------------
def test_host_workload_slows_processing(system):
    schedule = HostWorkloadSchedule([HostWorkload(1_000.0, 10_000.0, 0.5)])
    node = system.add_node(
        "V2",
        profile_by_name("V2"),
        EndpointSpec(GeoPoint(44.95, -93.20)),
        host_schedule=schedule,
    )
    system.run_for(500.0)
    assert node.processor.slowdown_factor == 1.0
    system.run_for(1_000.0)  # now inside the episode
    assert node.processor.slowdown_factor == pytest.approx(2.0)
    system.run_for(9_000.0)  # past the episode
    assert node.processor.slowdown_factor == 1.0


def test_status_snapshot_fields(system, node):
    system.run_for(100.0)
    status = node.status()
    assert status.node_id == "V1"
    assert status.cores == 8
    assert status.capacity_fps == pytest.approx(node.profile.capacity_fps)
    assert status.geohash == geohash.encode(44.98, -93.26, 9)
    assert node.status().geohash is status.geohash  # not re-encoded in place
    # a replaced endpoint is a moved node: its next status re-encodes
    moved = GeoPoint(44.90, -93.10)
    system.topology.add_endpoint(
        "V1", dataclasses.replace(system.topology.endpoint("V1"), point=moved), replace=True
    )
    status = node.status()
    assert (status.lat, status.lon) == (moved.lat, moved.lon)
    assert status.geohash == geohash.encode(moved.lat, moved.lon, 9)
