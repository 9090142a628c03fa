"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.core.client import EdgeClient
from repro.core.config import SystemConfig
from repro.core.system import EdgeSystem
from repro.geo.point import GeoPoint
from repro.net.topology import EndpointSpec
from repro.nodes.hardware import profile_by_name
from repro.sim.kernel import Simulator


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def rng() -> random.Random:
    return random.Random(1234)


@pytest.fixture
def config() -> SystemConfig:
    """A fast-cadence config for quick test runs."""
    return SystemConfig(
        top_n=2,
        probing_period_ms=1_000.0,
        probing_jitter_ms=50.0,
        heartbeat_period_ms=500.0,
        heartbeat_timeout_ms=1_500.0,
        seed=99,
    )


@pytest.fixture
def small_system(config: SystemConfig) -> EdgeSystem:
    """Three heterogeneous volunteers + two user endpoints, not started."""
    system = EdgeSystem(config)
    system.add_node("V1", profile_by_name("V1"), EndpointSpec(GeoPoint(44.98, -93.26)))
    system.add_node("V2", profile_by_name("V2"), EndpointSpec(GeoPoint(44.95, -93.20)))
    system.add_node("V5", profile_by_name("V5"), EndpointSpec(GeoPoint(44.90, -93.10)))
    system.add_client_endpoint("alice", EndpointSpec(GeoPoint(44.97, -93.25)))
    system.add_client_endpoint("bob", EndpointSpec(GeoPoint(44.93, -93.18)))
    return system


@pytest.fixture
def attached_client(small_system: EdgeSystem) -> EdgeClient:
    """A client that has completed its first selection round."""
    client = EdgeClient(small_system, "alice")
    small_system.add_client(client)
    small_system.run_for(3_000)
    assert client.attached, "client failed to attach during fixture setup"
    return client
