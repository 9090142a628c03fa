"""System-level invariants that must hold for any seed.

These run complete simulations across several seeds and assert
conservation/consistency properties — the class of bug unit tests miss
(double-counted frames, ghost attachments, negative accounting).
"""

import pytest

from repro.core.client import EdgeClient
from repro.core.config import SystemConfig
from repro.core.system import EdgeSystem
from repro.geo.point import GeoPoint
from repro.net.topology import EndpointSpec
from repro.nodes.hardware import profile_by_name

SEEDS = [1, 17, 99]


def run_world(seed, *, with_failures=False, duration_ms=20_000.0):
    config = SystemConfig(seed=seed, top_n=3, probing_period_ms=1_000.0)
    system = EdgeSystem(config)
    for i, name in enumerate(("V1", "V2", "V3", "D6")):
        system.add_node(
            name,
            profile_by_name(name),
            EndpointSpec(GeoPoint(44.94 + i * 0.012, -93.26 + i * 0.01)),
        )
    for i in range(5):
        user = f"u{i}"
        system.add_client_endpoint(user, EndpointSpec(GeoPoint(44.96, -93.24 + i * 0.004)))
        client = EdgeClient(system, user)
        system.clients[user] = client
        system.sim.schedule(i * 400.0, client.start)
    if with_failures:
        system.sim.schedule(8_000.0, lambda: system.fail_node("V1"))
        system.sim.schedule(
            12_000.0,
            lambda: system.add_node(
                "V1b",
                profile_by_name("V1"),
                EndpointSpec(GeoPoint(44.95, -93.25)),
            ),
        )
    system.run_for(duration_ms)
    return system


@pytest.mark.parametrize("seed", SEEDS)
def test_frame_accounting_conserves(seed):
    system = run_world(seed)
    for client in system.clients.values():
        stats = client.stats
        # every sent frame either completed, was lost, or is in flight
        in_flight = stats.frames_sent - stats.frames_completed - stats.frames_lost
        assert 0 <= in_flight <= 10
        assert len(stats.latencies_ms) == stats.frames_completed


@pytest.mark.parametrize("seed", SEEDS)
def test_metrics_match_client_counters(seed):
    system = run_world(seed)
    for user_id, client in system.clients.items():
        assert system.metrics.probes_sent[user_id] == client.stats.probes_sent
        recorded = [
            r for r in system.metrics.frames if r.user_id == user_id
        ]
        completed = sum(1 for r in recorded if not r.lost)
        assert completed == client.stats.frames_completed


@pytest.mark.parametrize("seed", SEEDS)
def test_attachment_agreement_between_clients_and_nodes(seed):
    system = run_world(seed)
    # Quiesce: stop churn of rounds before checking agreement.
    for client in system.clients.values():
        assert client.attached
        node = system.nodes[client.current_edge]
        assert client.user_id in node.attached, (
            f"{client.user_id} believes it is on {client.current_edge} "
            f"but the node disagrees"
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_no_user_attached_to_two_nodes(seed):
    system = run_world(seed)
    locations = {}
    for node_id, node in system.nodes.items():
        for user in node.attached:
            assert user not in locations, (
                f"{user} attached to both {locations[user]} and {node_id}"
            )
            locations[user] = node_id


@pytest.mark.parametrize("seed", SEEDS)
def test_latencies_physically_plausible(seed):
    system = run_world(seed)
    for record in system.metrics.frames:
        if record.latency_ms is None:
            continue
        # a completed frame cannot beat its node's bare processing time
        assert record.latency_ms > 10.0
        assert record.latency_ms < 60_000.0


@pytest.mark.parametrize("seed", SEEDS)
def test_invariants_survive_failures(seed):
    system = run_world(seed, with_failures=True)
    assert not system.nodes["V1"].alive
    for client in system.clients.values():
        assert client.current_edge != "V1"
        stats = client.stats
        in_flight = stats.frames_sent - stats.frames_completed - stats.frames_lost
        assert 0 <= in_flight <= 10
    # backup lists never contain the dead node after a probing period
    for client in system.clients.values():
        assert "V1" not in client.failure_monitor.backups


@pytest.mark.parametrize("seed", SEEDS)
def test_seq_num_monotone_nondecreasing_vs_joins(seed):
    system = run_world(seed)
    for node in system.nodes.values():
        # every accepted join/leave/monitor trigger bumped it at least once
        state_changes = node.joins_accepted
        assert node.seq_num >= state_changes


@pytest.mark.parametrize("seed", SEEDS)
def test_collector_population_series_is_consistent(seed):
    system = run_world(seed, with_failures=True)
    values = system.metrics.alive_nodes.values
    assert values[-1] == system.alive_node_count()
    assert all(v >= 0 for v in values)
