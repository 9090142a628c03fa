"""Sim-driver tests for the sharded control plane.

Covers the golden parity contract (a sharded/replicated manager answers
discovery bit-identically to the seed's single manager over a live
system), the shard-outage failover sequence (down -> detection window ->
standby promotion -> rejoin handoff), the degraded path when a shard has
no standby, epoch-change registry handoff, and the chaos scenario family
wrapping it all.
"""

from __future__ import annotations

import pytest

from repro.api import ScenarioBuilder
from repro.controlplane.errors import ControlPlaneUnavailable
from repro.controlplane.sim_driver import ShardedCentralManager
from repro.core.client import EdgeClient
from repro.core.config import SystemConfig
from repro.core.manager import CentralManager
from repro.core.system import EdgeSystem
from repro.faults import FaultInjector, FaultPlan, ManagerOutage, Window
from repro.faults.scenarios import CANONICAL, controlplane, run_chaos
from repro.geo.point import GeoPoint
from repro.messages import DiscoveryQuery
from repro.net.topology import EndpointSpec
from repro.nodes.hardware import profile_by_name
from repro.obs.tracer import Tracer

CENTER = GeoPoint(44.97, -93.25)
#: Offsets tens of km apart: the nodes land in several precision-4
#: geohash cells, so shards>1 actually partitions the registry.
NODE_OFFSETS = [(-24.0, -18.0), (-10.0, 6.0), (0.0, 0.0), (12.0, -8.0), (24.0, 16.0)]


def build_system(
    *, shards: int = 1, replicas: int = 1, seed: int = 3, with_client: bool = False
) -> EdgeSystem:
    tracer = Tracer()
    config = SystemConfig(
        seed=seed,
        top_n=3,
        probing_period_ms=3_000.0,
        control_plane_shards=shards,
        control_plane_replicas=replicas,
    )
    system = EdgeSystem(config, trace=tracer)
    profiles = ("V1", "V2", "V5", "V1", "V2")
    for i, (dx, dy) in enumerate(NODE_OFFSETS):
        system.add_node(
            f"edge-{i}",
            profile_by_name(profiles[i]),
            EndpointSpec(CENTER.offset_km(dx, dy)),
        )
    if with_client:
        system.add_client_endpoint("alice", EndpointSpec(CENTER.offset_km(0.5, 0.5)))
        system.add_client(EdgeClient(system, "alice"))
    return system


def queries_at_each_node(top_n: int = 3):
    return [
        DiscoveryQuery(
            user_id=f"q{i}",
            lat=CENTER.offset_km(dx, dy).lat,
            lon=CENTER.offset_km(dx, dy).lon,
            top_n=top_n,
        )
        for i, (dx, dy) in enumerate(NODE_OFFSETS)
    ]


# ----------------------------------------------------------------------
# Wiring + golden parity
# ----------------------------------------------------------------------
def test_default_config_uses_the_seed_manager():
    assert isinstance(build_system().manager, CentralManager)


def test_shards_or_replicas_select_the_control_plane():
    assert isinstance(build_system(shards=2).manager, ShardedCentralManager)
    assert isinstance(build_system(replicas=2).manager, ShardedCentralManager)


def test_a_shard_targeted_plan_selects_the_control_plane_at_1x1():
    """Only the sharded manager has a shard to lose: a plan that takes
    one down gets it even at shards=1, replicas=1; a whole-manager
    outage (enforced per message) keeps the seed manager."""
    window = Window(1_000.0, 2_000.0)
    whole = FaultPlan(outages=(ManagerOutage("m", window),))
    targeted = FaultPlan(outages=(ManagerOutage("s", window, shard=0),))
    config = SystemConfig(seed=3)
    for plan, manager_type in ((whole, CentralManager), (targeted, ShardedCentralManager)):
        system = EdgeSystem(config, faults=FaultInjector(plan, seed=3))
        assert type(system.manager) is manager_type


def test_scenario_builder_control_plane_knob():
    scenario = (
        ScenarioBuilder(SystemConfig(seed=4))
        .control_plane(shards=2, replicas=2)
        .node("edge-a", profile_by_name("V1"), point=CENTER.offset_km(1.0, 0.0))
        .build_scenario()
    )
    manager = scenario.system.manager
    assert isinstance(manager, ShardedCentralManager)
    assert len(manager.shards) == 2
    assert manager.shards[0].replicas == 2


def test_scenario_builder_control_plane_validates():
    with pytest.raises(ValueError):
        ScenarioBuilder(SystemConfig()).control_plane(shards=0)


@pytest.mark.parametrize("shards,replicas", [(2, 1), (3, 2), (1, 2)])
def test_discover_parity_with_single_manager(shards, replicas):
    """Same seed, same heartbeat traffic: the sharded control plane's
    merged answers equal the single manager's, id-for-id."""
    reference = build_system()
    sharded = build_system(shards=shards, replicas=replicas)
    reference.run_for(4_000.0)
    sharded.run_for(4_000.0)
    for query in queries_at_each_node():
        want = reference.manager.discover(query)
        got = sharded.manager.discover(query)
        assert got.node_ids == want.node_ids
        assert got.widened == want.widened


def test_full_run_client_parity():
    """End-to-end: a client driving a sharded system completes the same
    frames against the same edges as one driving the seed manager."""
    reference = build_system(with_client=True)
    sharded = build_system(shards=2, replicas=2, with_client=True)
    reference.run_for(10_000.0)
    sharded.run_for(10_000.0)
    ref_client = reference.clients["alice"]
    cp_client = sharded.clients["alice"]
    assert cp_client.stats.frames_completed == ref_client.stats.frames_completed
    assert cp_client.current_edge == ref_client.current_edge


# ----------------------------------------------------------------------
# Failover
# ----------------------------------------------------------------------
def test_shard_outage_promotes_standby_after_detection_window():
    system = build_system(shards=2, replicas=2)
    system.run_for(2_000.0)
    manager = system.manager
    assert isinstance(manager, ShardedCentralManager)
    manager.on_shard_outage_start(0)
    assert manager.shards[0].serving_index() is None
    # Inside the detection window: not yet promoted.
    system.run_for(manager.promotion_delay_ms / 2)
    assert manager.promotions == 0
    system.run_for(manager.promotion_delay_ms)
    assert manager.promotions == 1
    assert manager.shards[0].serving_index() == 1
    kinds = [e.to_dict()["type"] for e in system.trace.events()]
    assert "manager_promote" in kinds

    # The outage lifts: the old primary rejoins as a standby, re-seeded
    # from the promoted replica's snapshot.
    manager.on_shard_outage_end(0)
    assert manager.shards[0].alive_replicas() == [0, 1]
    assert manager.shards[0].primary == 1
    kinds = [e.to_dict()["type"] for e in system.trace.events()]
    assert "registry_handoff" in kinds
    registries = [m.registry for m in manager.shards[0].machines]
    assert registries[0] == registries[1]


def test_outage_ending_inside_detection_window_skips_promotion():
    system = build_system(shards=2, replicas=2)
    system.run_for(2_000.0)
    manager = system.manager
    manager.on_shard_outage_start(0)
    manager.on_shard_outage_end(0)
    system.run_for(2 * manager.promotion_delay_ms)
    assert manager.promotions == 0
    assert manager.shards[0].primary == 0
    assert manager.shards[0].serving_index() == 0


def test_unreplicated_shard_outage_degrades_then_resumes():
    """replicas=1: nothing to promote — discovery touching a downed
    shard raises ControlPlaneUnavailable (the caller's cue to take the
    DiscoveryFailed -> degraded-fallback path), and the old primary
    resumes with its registry intact when the outage lifts."""
    system = build_system(shards=2, replicas=1)
    system.run_for(2_000.0)
    manager = system.manager
    before = [manager.discover(q).node_ids for q in queries_at_each_node()]
    assert manager.on_shard_outage_start(0)
    assert not manager.on_shard_outage_start(0)  # overlapping rule: no-op
    assert not manager.on_shard_outage_end(1)  # no-op: shard 1 has no outage
    system.run_for(2 * manager.promotion_delay_ms)
    assert manager.promotions == 0
    with pytest.raises(ControlPlaneUnavailable):
        for query in queries_at_each_node():
            manager.discover(query)
    assert manager.on_shard_outage_end(0)
    after = [manager.discover(q).node_ids for q in queries_at_each_node()]
    assert after == before


def test_heartbeats_keep_standbys_warm_through_outage():
    """Delta replication: heartbeats arriving while the primary is down
    still land on the standby, so the promoted registry is current."""
    system = build_system(shards=2, replicas=2)
    system.run_for(2_000.0)
    manager = system.manager
    manager.on_shard_outage_start(0)
    system.run_for(4_000.0)  # heartbeat traffic continues; promotion fires
    assert manager.promotions == 1
    serving = manager.shards[0].serving_machine()
    assert serving is not None and len(serving.registry) > 0
    assert manager.heartbeats_dropped == 0


# ----------------------------------------------------------------------
# Epoch change
# ----------------------------------------------------------------------
def test_apply_shard_map_preserves_answers_and_bumps_epoch():
    system = build_system(shards=2, replicas=2)
    system.run_for(4_000.0)
    manager = system.manager
    before = [manager.discover(q).node_ids for q in queries_at_each_node()]
    old_epoch = manager.shard_map.epoch
    manager.apply_shard_map(manager.shard_map.derive(count=4))
    assert manager.shard_map.epoch == old_epoch + 1
    assert len(manager.shards) == 4
    after = [manager.discover(q).node_ids for q in queries_at_each_node()]
    assert after == before
    handoffs = [
        e.to_dict()
        for e in system.trace.events()
        if e.to_dict()["type"] == "registry_handoff"
    ]
    assert handoffs and all(h["reason"] == "epoch" for h in handoffs)


def test_apply_shard_map_rejects_stale_epoch():
    system = build_system(shards=2)
    manager = system.manager
    with pytest.raises(ValueError):
        manager.apply_shard_map(manager.shard_map)


# ----------------------------------------------------------------------
# Chaos family
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 3])
def test_controlplane_chaos_recovers(seed):
    report, events = run_chaos(controlplane(), seed=seed)
    assert report.ok, report.problems
    kinds = [e.to_dict()["type"] for e in events]
    assert "manager_promote" in kinds
    assert "registry_handoff" in kinds


@pytest.mark.parametrize("shards", [1, 2])
def test_unreplicated_controlplane_chaos_degrades_and_recovers(shards):
    """replicas=1, and 1x1 like 2x1: the targeted shard is unavailable
    for the outage window, nothing is promoted, clients ride the
    degraded fallback, and only outages that happened are counted."""
    scenario = controlplane(shards, 1)
    report, events = run_chaos(scenario, seed=0)
    assert report.ok, report.problems
    assert report.violations == []
    assert report.event_counts.get("manager_promote", 0) == 0
    assert report.event_counts["degraded_fallback"] > 0
    starts = [
        e for e in events if e.type == "fault_injected" and e.kind == "outage_start"
    ]
    assert [e.dst for e in starts] == [f"shard:{s}" for s in scenario.shard_targets]
    assert report.injected["outage_start"] == len(starts)
    assert report.injected["outage_end"] == len(starts)


def test_overlapping_shard_outage_is_traced_but_not_counted():
    """The second rule on a shard that is already down does nothing."""
    plan = FaultPlan(
        outages=(
            ManagerOutage("first", Window(4_000.0, 9_000.0), shard=0),
            ManagerOutage("second", Window(6_000.0, 12_000.0), shard=0),
        )
    )
    report, events = run_chaos(CANONICAL, seed=0, plan=plan)
    traced = [e.kind for e in events if e.type == "fault_injected"]
    assert traced.count("outage_start") == traced.count("outage_end") == 2
    assert report.injected == {"outage_start": 1, "outage_end": 1}
    assert report.ok, report.problems


def test_controlplane_chaos_is_seed_deterministic():
    _, events_a = run_chaos(controlplane(), seed=5)
    _, events_b = run_chaos(controlplane(), seed=5)
    assert [e.to_dict() for e in events_a] == [e.to_dict() for e in events_b]
