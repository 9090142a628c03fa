"""Tests for the fluent scenario-building API (repro.api)."""

import gc
import weakref
from dataclasses import replace

import pytest

from repro.api import EndpointSpec, ScenarioBuilder
from repro.core.client import EdgeClient
from repro.core.config import SystemConfig
from repro.core.system import EdgeSystem
from repro.geo.point import GeoPoint
from repro.metro import MetroSimulation, MetroSpec, ShardSpec
from repro.net.latency import NetworkTier
from repro.nodes.hardware import profile_by_name


def test_builder_wires_nodes_and_clients():
    scenario = (
        ScenarioBuilder(SystemConfig(top_n=2, seed=7))
        .node("V1", profile_by_name("V1"), point=GeoPoint(44.98, -93.26))
        .node("V2", profile_by_name("V2"), point=GeoPoint(44.95, -93.20))
        .client("alice", point=GeoPoint(44.97, -93.25))
        .client_endpoint("bob", point=GeoPoint(44.93, -93.18))
        .build_scenario()
    )
    system = scenario.system
    assert scenario.node_ids == ["V1", "V2"]
    assert scenario.user_ids == ["alice", "bob"]
    assert system.alive_node_count() == 2
    assert list(system.clients) == ["alice"]  # bob is endpoint-only
    assert system.topology.has_endpoint("bob")


def test_builder_default_spec_applies_at_point():
    system = (
        ScenarioBuilder(SystemConfig(seed=1))
        .default_node_spec(
            EndpointSpec(GeoPoint(0, 0), tier=NetworkTier.LAN, uplink_mbps=123.0)
        )
        .node("V1", profile_by_name("V1"), point=GeoPoint(44.98, -93.26))
        .build()
    )
    endpoint = system.topology.endpoint("V1")
    assert endpoint.point == GeoPoint(44.98, -93.26)
    assert endpoint.tier is NetworkTier.LAN
    assert endpoint.uplink_mbps == 123.0


def test_builder_explicit_spec_wins_over_default():
    spec = EndpointSpec(GeoPoint(44.90, -93.10), isp="isp-x")
    system = (
        ScenarioBuilder(SystemConfig(seed=1))
        .default_node_spec(EndpointSpec(GeoPoint(0, 0), isp="isp-default"))
        .node("V1", profile_by_name("V1"), spec)
        .build()
    )
    assert system.topology.endpoint("V1").isp == "isp-x"


def test_builder_rejects_spec_and_point_together():
    builder = ScenarioBuilder(SystemConfig(seed=1))
    with pytest.raises(ValueError, match="not both"):
        builder.node(
            "V1",
            profile_by_name("V1"),
            EndpointSpec(GeoPoint(0, 0)),
            point=GeoPoint(1, 1),
        )


def test_builder_rejects_missing_position():
    builder = ScenarioBuilder(SystemConfig(seed=1))
    with pytest.raises(ValueError, match="needs a spec"):
        builder.node("V1", profile_by_name("V1"))


def test_builder_client_factory_and_start_flag():
    calls = []

    def factory(system, user_id):
        client = EdgeClient(system, user_id)
        calls.append(user_id)
        return client

    system = (
        ScenarioBuilder(SystemConfig(seed=1))
        .node("V1", profile_by_name("V1"), point=GeoPoint(44.98, -93.26))
        .client("alice", factory, point=GeoPoint(44.97, -93.25), start=False)
        .build()
    )
    assert calls == ["alice"]
    assert "alice" in system.clients
    # start=False: no probing scheduled yet, so the client is unattached
    system.run_for(3_000.0)
    assert system.clients["alice"].current_edge is None


def test_builder_run_matches_manual_construction():
    """The builder is wiring sugar: same declarations, same trajectory."""

    def manual():
        system = EdgeSystem(SystemConfig(seed=77, top_n=2))
        system.add_node(
            "V1", profile_by_name("V1"), EndpointSpec(GeoPoint(44.98, -93.26))
        )
        system.add_node(
            "V2", profile_by_name("V2"), EndpointSpec(GeoPoint(44.95, -93.20))
        )
        system.add_client_endpoint("alice", EndpointSpec(GeoPoint(44.97, -93.25)))
        system.add_client(EdgeClient(system, "alice"))
        system.run_for(10_000.0)
        return system.clients["alice"].stats.latencies_ms

    def built():
        system = (
            ScenarioBuilder(SystemConfig(seed=77, top_n=2))
            .node("V1", profile_by_name("V1"), point=GeoPoint(44.98, -93.26))
            .node("V2", profile_by_name("V2"), point=GeoPoint(44.95, -93.20))
            .client("alice", point=GeoPoint(44.97, -93.25))
            .build()
        )
        system.run_for(10_000.0)
        return system.clients["alice"].stats.latencies_ms

    assert manual() == built()


def _one_node_builder() -> ScenarioBuilder:
    return (
        ScenarioBuilder(SystemConfig(top_n=2, seed=7))
        .node("V1", profile_by_name("V1"), point=GeoPoint(44.98, -93.26))
        .client("alice", point=GeoPoint(44.97, -93.25))
    )


def test_building_again_reclaims_the_previous_world():
    """A dropped world holds no reference cycle: reference counting
    frees it the moment it is dropped, with no collection at all."""
    builder = _one_node_builder()
    gc.disable()  # no lucky automatic pass
    try:
        first = builder.build()
        first.run_for(1_000.0)
        first_ref = weakref.ref(first)
        del first
        assert first_ref() is None
        second = builder.build()
        assert second.alive_node_count() == 1
    finally:
        gc.enable()


def test_building_again_reclaims_a_world_its_caller_tied_into_a_cycle():
    """A callback that captures its world ties the two into a cycle the
    world cannot cut; the next build collects it all the same."""
    builder = _one_node_builder()
    gc.disable()
    try:
        first = builder.build()
        first.sim.schedule_at(60_000.0, lambda world=first: world.fail_node("V1"))
        first.run_for(1_000.0)
        first_ref = weakref.ref(first)
        del first
        assert first_ref() is not None  # the caller's cycle keeps it
        second = builder.build()
        assert first_ref() is None
        assert second.alive_node_count() == 1
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# Metro scale: a MetroSpec is run by MetroSimulation directly. The
# builder writes per-event worlds only.
# ----------------------------------------------------------------------
def test_builder_metro_builds_a_runnable_simulation():
    sim = MetroSimulation(
        MetroSpec(nodes=100, users=300, region_km=10.0), SystemConfig(seed=3)
    )
    report = sim.run(2.0)
    assert report.frames_done > 0


def test_builder_metro_accepts_full_spec():
    spec = MetroSpec(nodes=50, users=100, shard=ShardSpec(count=2))
    sim = MetroSimulation(spec, SystemConfig(seed=3))
    assert sim.spec is spec


def test_builder_shard_overrides_compose_with_metro():
    spec = replace(MetroSpec(nodes=100, users=300), shard=ShardSpec(count=2, workers=2))
    sim = MetroSimulation(spec, SystemConfig(seed=3))
    assert sim.spec.shard.count == 2
    assert sim.spec.shard.workers == 2


def test_builder_observe_trace_flows_into_metro():
    sim = MetroSimulation(
        MetroSpec(nodes=50, users=100), SystemConfig(seed=3), capture_trace=True
    )
    report = sim.run(1.0)
    assert len(report.trace_events) > 0
    types = {e.type for e in report.trace_events}
    assert "join_accept" in types and "frame_done" in types
