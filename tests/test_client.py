"""Unit/behavioural tests for the client: Algorithm 2, switching,
hysteresis, failure monitor integration, offloading."""

import pytest

from repro.core.client import EdgeClient
from repro.core.config import SystemConfig
from repro.core.system import EdgeSystem
from repro.geo.point import GeoPoint
from repro.net.topology import EndpointSpec
from repro.nodes.hardware import profile_by_name


def build_system(config=None, nodes=("V1", "V2", "V5")):
    system = EdgeSystem(config or SystemConfig(seed=9, top_n=2))
    points = {
        "V1": GeoPoint(44.98, -93.26),
        "V2": GeoPoint(44.95, -93.20),
        "V3": GeoPoint(44.96, -93.22),
        "V5": GeoPoint(44.90, -93.10),
    }
    for name in nodes:
        system.add_node(name, profile_by_name(name), EndpointSpec(points[name]))
    system.add_client_endpoint("alice", EndpointSpec(GeoPoint(44.97, -93.25)))
    return system


def test_client_attaches_after_first_round():
    system = build_system()
    client = EdgeClient(system, "alice")
    system.add_client(client)
    system.run_for(2_000.0)
    assert client.attached
    assert client.current_edge in ("V1", "V2", "V5")
    assert client.stats.joins_accepted == 1


def test_client_picks_best_performing_node(attached_client):
    """With heterogeneous hardware and similar RTTs, the fast V1 wins."""
    assert attached_client.current_edge == "V1"


def test_backups_hold_unselected_candidates():
    system = build_system(SystemConfig(seed=9, top_n=3))
    client = EdgeClient(system, "alice")
    system.add_client(client)
    system.run_for(3_000.0)
    assert len(client.failure_monitor.backups) == 2
    assert client.current_edge not in client.failure_monitor.backups


def test_backup_count_respects_topn():
    system = build_system(SystemConfig(seed=9, top_n=1))
    client = EdgeClient(system, "alice")
    system.add_client(client)
    system.run_for(3_000.0)
    assert client.attached
    assert client.failure_monitor.backups == []


def test_offloading_produces_latencies():
    system = build_system()
    client = EdgeClient(system, "alice")
    system.add_client(client)
    system.run_for(10_000.0)
    stats = client.stats
    assert stats.frames_completed > 100
    # e2e must exceed the node's raw processing time
    assert stats.mean_latency_ms > profile_by_name(client.current_edge).base_frame_ms


def test_probes_counted_per_candidate():
    config = SystemConfig(seed=9, top_n=3, probing_period_ms=1_000.0)
    system = build_system(config)
    client = EdgeClient(system, "alice")
    system.add_client(client)
    system.run_for(5_100.0)
    # ~6 rounds (initial + 5 periodic) x 3 candidates
    assert client.stats.probes_sent >= 12
    assert system.metrics.probes_sent["alice"] == client.stats.probes_sent


def test_client_switches_to_better_node_when_current_degrades():
    config = SystemConfig(seed=9, top_n=2, min_dwell_ms=1_000.0)
    system = build_system(config, nodes=("V1", "V2"))
    client = EdgeClient(system, "alice")
    system.add_client(client)
    system.run_for(3_000.0)
    first = client.current_edge
    # Saturate the chosen node with 6 phantom users at full rate.
    node = system.nodes[first]
    for i in range(6):
        node.unexpected_join(f"phantom-{i}", fps=20.0)
        node.processor.submit(system.sim.now)  # make them visible
    system.run_for(10_000.0)
    assert client.current_edge != first
    assert client.stats.switches >= 1


def test_dwell_prevents_immediate_reswitch():
    config = SystemConfig(seed=9, top_n=2, min_dwell_ms=60_000.0)
    system = build_system(config)
    client = EdgeClient(system, "alice")
    system.add_client(client)
    system.run_for(20_000.0)
    assert client.stats.switches == 0


def test_stop_sends_leave():
    system = build_system()
    client = EdgeClient(system, "alice")
    system.add_client(client)
    system.run_for(3_000.0)
    edge = system.nodes[client.current_edge]
    client.stop()
    system.run_for(500.0)
    assert "alice" not in edge.attached
    assert not client.attached


def test_stop_is_idempotent_and_halts_frames():
    system = build_system()
    client = EdgeClient(system, "alice")
    system.add_client(client)
    system.run_for(3_000.0)
    client.stop()
    client.stop()
    sent = client.stats.frames_sent
    system.run_for(3_000.0)
    assert client.stats.frames_sent == sent


# ----------------------------------------------------------------------
# Failure handling
# ----------------------------------------------------------------------
def test_failover_switches_to_backup():
    system = build_system(SystemConfig(seed=9, top_n=3))
    client = EdgeClient(system, "alice")
    system.add_client(client)
    system.run_for(3_000.0)
    victim = client.current_edge
    expected_backup = client.failure_monitor.backups[0]
    system.fail_node(victim)
    system.run_for(1_000.0)
    assert client.current_edge == expected_backup
    assert client.stats.covered_failovers == 1
    assert client.stats.uncovered_failures == 0


def test_failover_skips_dead_backup():
    system = build_system(SystemConfig(seed=9, top_n=3))
    client = EdgeClient(system, "alice")
    system.add_client(client)
    system.run_for(3_000.0)
    victim = client.current_edge
    first_backup, second_backup = client.failure_monitor.backups[:2]
    # kill the first backup silently (no notification race: direct fail)
    system.nodes[first_backup].fail()
    system.fail_node(victim)
    system.run_for(1_500.0)
    assert client.current_edge == second_backup


def test_no_backups_is_uncovered_failure_then_rediscovery():
    system = build_system(SystemConfig(seed=9, top_n=1), nodes=("V1", "V2"))
    client = EdgeClient(system, "alice")
    system.add_client(client)
    system.run_for(3_000.0)
    victim = client.current_edge
    survivor = "V2" if victim == "V1" else "V1"
    system.fail_node(victim)
    system.run_for(5_000.0)
    assert client.stats.uncovered_failures == 1
    assert client.current_edge == survivor


def test_backup_failure_prunes_list_without_detaching():
    system = build_system(SystemConfig(seed=9, top_n=3))
    client = EdgeClient(system, "alice")
    system.add_client(client)
    system.run_for(3_000.0)
    current = client.current_edge
    backup = client.failure_monitor.backups[0]
    system.fail_node(backup)
    system.run_for(500.0)
    assert client.current_edge == current
    assert backup not in client.failure_monitor.backups


def test_frames_lost_during_failure_are_recorded():
    system = build_system(SystemConfig(seed=9, top_n=3))
    client = EdgeClient(system, "alice")
    system.add_client(client)
    system.run_for(3_000.0)
    system.fail_node(client.current_edge)
    system.run_for(2_000.0)
    assert client.stats.frames_lost > 0


def test_join_rejection_repeats_from_discovery():
    """Force a seq mismatch on every candidate: the client must retry
    discovery and count the rejections."""
    system = build_system(SystemConfig(seed=9, top_n=2))
    client = EdgeClient(system, "alice")

    # Sabotage: bump seq numbers right after every probe.
    original = client._probe_candidates

    def sabotaged(node_ids):
        original(node_ids)
        for node in system.nodes.values():
            node.seq_num += 1

    client._probe_candidates = sabotaged
    system.add_client(client)
    system.run_for(2_000.0)
    assert client.stats.joins_rejected >= 1
    assert not client.attached or client.stats.joins_accepted >= 1
