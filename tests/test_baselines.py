"""Behavioural tests for the baseline selection strategies."""

import pytest

from repro.baselines.dedicated_only import dedicated_only_policy, is_dedicated
from repro.baselines.geo_proximity import GeoProximityClient
from repro.baselines.resource_aware import ResourceAwareWRRClient
from repro.baselines.static_pin import StaticPinClient
from repro.core.client import EdgeClient
from repro.core.config import SystemConfig
from repro.core.system import EdgeSystem
from repro.geo.point import GeoPoint
from repro.net.topology import EndpointSpec
from repro.nodes.hardware import profile_by_name


def build_system(config=None):
    system = EdgeSystem(config or SystemConfig(seed=21, top_n=2))
    system.add_node(
        "near-slow",
        profile_by_name("V5"),
        EndpointSpec(GeoPoint(44.971, -93.251)),
    )
    system.add_node(
        "far-fast",
        profile_by_name("V1"),
        EndpointSpec(GeoPoint(44.90, -93.05)),
    )
    system.add_node(
        "dedicated",
        profile_by_name("D6"),
        EndpointSpec(GeoPoint(44.973, -93.257)),
        dedicated=True,
    )
    system.add_client_endpoint("alice", EndpointSpec(GeoPoint(44.97, -93.25)))
    return system


# ----------------------------------------------------------------------
# Geo-proximity
# ----------------------------------------------------------------------
def test_geo_client_picks_geographically_closest():
    system = build_system()
    client = GeoProximityClient(system, "alice")
    system.add_client(client)
    system.run_for(3_000.0)
    assert client.current_edge == "near-slow"  # closest, capacity-blind


def test_geo_client_never_probes():
    system = build_system()
    client = GeoProximityClient(system, "alice")
    system.add_client(client)
    system.run_for(5_000.0)
    assert client.stats.probes_sent == 0


def test_geo_client_reattaches_after_failure():
    system = build_system()
    client = GeoProximityClient(system, "alice")
    system.add_client(client)
    system.run_for(3_000.0)
    system.fail_node("near-slow")
    # The dead node must first age out of the manager registry
    # (heartbeat timeout) before re-discovery can land elsewhere.
    system.run_for(8_000.0)
    assert client.stats.uncovered_failures == 1
    assert client.current_edge == "dedicated"  # the new closest


# ----------------------------------------------------------------------
# Resource-aware WRR
# ----------------------------------------------------------------------
def test_wrr_client_attaches_via_manager_assignment():
    system = build_system()
    client = ResourceAwareWRRClient(system, "alice")
    system.add_client(client)
    system.run_for(3_000.0)
    assert client.attached
    assert client.stats.probes_sent == 0


def test_wrr_assignment_is_static_while_node_lives():
    system = build_system()
    client = ResourceAwareWRRClient(system, "alice")
    system.add_client(client)
    system.run_for(3_000.0)
    first = client.current_edge
    system.run_for(10_000.0)
    assert client.current_edge == first
    assert client.stats.switches == 0


def test_wrr_client_recovers_from_failure():
    system = build_system()
    client = ResourceAwareWRRClient(system, "alice")
    system.add_client(client)
    system.run_for(3_000.0)
    victim = client.current_edge
    system.fail_node(victim)
    system.run_for(3_000.0)
    assert client.attached
    assert client.current_edge != victim


# ----------------------------------------------------------------------
# Static pin
# ----------------------------------------------------------------------
def test_pin_client_sticks_to_target():
    system = build_system()
    client = StaticPinClient(system, "alice", target_node_id="far-fast")
    system.add_client(client)
    system.run_for(5_000.0)
    assert client.current_edge == "far-fast"
    system.run_for(10_000.0)
    assert client.current_edge == "far-fast"


def test_pin_client_retries_until_target_exists():
    system = build_system()
    system.fail_node("far-fast")
    client = StaticPinClient(system, "alice", target_node_id="far-fast")
    system.add_client(client)
    system.run_for(2_000.0)
    assert not client.attached
    system.add_node(
        "far-fast",
        profile_by_name("V1"),
        EndpointSpec(GeoPoint(44.90, -93.05)),
    )
    system.run_for(3_000.0)
    assert client.current_edge == "far-fast"


# ----------------------------------------------------------------------
# Dedicated-only policy
# ----------------------------------------------------------------------
def test_is_dedicated_predicate():
    system = build_system()
    system.run_for(200.0)
    statuses = {s.node_id: s for s in system.manager.alive_statuses()}
    assert is_dedicated(statuses["dedicated"])
    assert not is_dedicated(statuses["near-slow"])


def test_dedicated_only_policy_restricts_pool():
    config = SystemConfig(seed=21, top_n=3)
    system = EdgeSystem(config, global_policy=dedicated_only_policy())
    system.add_node("vol", profile_by_name("V1"), EndpointSpec(GeoPoint(44.98, -93.26)))
    system.add_node(
        "ded",
        profile_by_name("D6"),
        EndpointSpec(GeoPoint(44.97, -93.26)),
        dedicated=True,
    )
    system.add_client_endpoint("alice", EndpointSpec(GeoPoint(44.97, -93.25)))
    client = EdgeClient(system, "alice")
    system.add_client(client)
    system.run_for(3_000.0)
    assert client.current_edge == "ded"


def test_client_centric_beats_random_on_average():
    """Sanity floor: informed selection must beat random attachment."""

    def mean_latency(client_cls, **kwargs):
        config = SystemConfig(seed=77, top_n=3)
        system = EdgeSystem(config)
        system.add_node(
            "fast",
            profile_by_name("V1"),
            EndpointSpec(GeoPoint(44.975, -93.255)),
        )
        system.add_node(
            "slow",
            profile_by_name("V5"),
            EndpointSpec(GeoPoint(44.972, -93.252)),
        )
        system.add_node(
            "slow2",
            profile_by_name("V4"),
            EndpointSpec(GeoPoint(44.973, -93.256)),
        )
        system.add_client_endpoint("alice", EndpointSpec(GeoPoint(44.97, -93.25)))
        client = client_cls(system, "alice", **kwargs)
        system.add_client(client)
        system.run_for(20_000.0)
        return client.stats.mean_latency_ms

    informed = mean_latency(EdgeClient)
    pinned_worst = mean_latency(StaticPinClient, target_node_id="slow")
    assert informed < pinned_worst
