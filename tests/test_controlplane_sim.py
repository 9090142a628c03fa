"""Tests for the sim Central Manager at its sharded, replicated shapes.

Covers the shape (read off the config, 1x1 by default, checked against
the fault plan), the parity contract (at every shape the manager answers
discovery bit-identically to one ``GlobalSelectionMachine`` holding the
same statuses), the shard-outage failover sequence (down -> detection
window -> standby promotion -> rejoin handoff), the degraded path when a
shard has no standby, and the chaos scenario family wrapping it all.
"""

from __future__ import annotations

import random

import pytest

from repro.api import ScenarioBuilder
from repro.controlplane.errors import ControlPlaneUnavailable
from repro.core.client import EdgeClient
from repro.core.config import SystemConfig
from repro.core.manager import CentralManager
from repro.core.system import EdgeSystem
from repro.faults import FaultInjector, FaultPlan, ManagerOutage, Window
from repro.faults.scenarios import CANONICAL, controlplane, run_chaos
from repro.geo.geohash import encode
from repro.geo.point import GeoPoint
from repro.messages import DiscoveryQuery, NodeStatus
from repro.net.topology import EndpointSpec
from repro.nodes.hardware import profile_by_name
from repro.obs.tracer import Tracer
from repro.protocol.effects import ReplyCandidates
from repro.protocol.events import DiscoveryRequested, HeartbeatReceived
from repro.protocol.global_select import GlobalSelectionMachine

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
TARGETED = FaultPlan(outages=(ManagerOutage("s", Window(1_000.0, 2_000.0), shard=0),))


@pytest.mark.parametrize(
    "shards,replicas,plan",
    [(1, 1, None), (2, 1, None), (1, 2, None), (1, 1, TARGETED)],
    ids=["1x1", "2x1", "1x2", "1x1-shard-targeted"],
)
def test_the_manager_takes_its_shape_from_the_config(shards, replicas, plan):
    """One manager class at every shape; a shard-targeted plan needs no
    other manager, since 1x1 already has a shard to lose."""
    config = SystemConfig(
        seed=3, control_plane_shards=shards, control_plane_replicas=replicas
    )
    faults = FaultInjector(plan, seed=3) if plan is not None else None
    manager = EdgeSystem(config, faults=faults).manager
    assert type(manager) is CentralManager
    assert len(manager.shards) == shards
    assert [shard.replicas for shard in manager.shards] == [replicas] * shards


def test_a_plan_naming_a_missing_shard_is_refused_at_construction():
    """Not an ``IndexError`` when the outage starts mid-run."""
    plan = FaultPlan(outages=(ManagerOutage("s", Window(1_000.0, 2_000.0), shard=3),))
    with pytest.raises(ValueError, match="targets shard 3 of a 1-shard"):
        EdgeSystem(SystemConfig(seed=3), faults=FaultInjector(plan, seed=3))
    system = EdgeSystem(
        SystemConfig(seed=3, control_plane_shards=4),
        faults=FaultInjector(plan, seed=3),
    )
    system.run_for(3_000.0)
    assert system.faults is not None
    assert system.faults.injected["outage_start"] == 1


def test_scenario_builder_control_plane_knob():
    config = SystemConfig(seed=4, control_plane_shards=2, control_plane_replicas=2)
    scenario = (
        ScenarioBuilder(config)
        .node("edge-a", profile_by_name("V1"), point=CENTER.offset_km(1.0, 0.0))
        .build_scenario()
    )
    manager = scenario.system.manager
    assert len(manager.shards) == 2
    assert manager.shards[0].replicas == 2


def test_scenario_builder_control_plane_validates():
    """The control plane's shape is set on the config, which refuses an
    empty one before any builder sees it."""
    with pytest.raises(ValueError, match="control_plane_shards"):
        SystemConfig(control_plane_shards=0)
    with pytest.raises(ValueError, match="control_plane_replicas"):
        SystemConfig(control_plane_replicas=0)


@pytest.mark.parametrize("shards,replicas", [(1, 1), (2, 1), (3, 2), (1, 2)])
def test_discover_parity_with_single_manager(shards, replicas):
    """At every shape the manager's merged answers equal, id-for-id,
    those of one bare machine fed the same statuses at the same stamps."""
    system = build_system(shards=shards, replicas=replicas)
    system.run_for(4_000.0)
    manager = system.manager
    now = system.sim.now
    reference = GlobalSelectionMachine(
        manager.policy, heartbeat_timeout=system.config.heartbeat_timeout_ms
    )
    statuses = manager.alive_statuses()
    assert len(statuses) == len(NODE_OFFSETS)
    for status in statuses:
        reference.handle(HeartbeatReceived(stamp=status.reported_at_ms, status=status))
    for query in queries_at_each_node():
        effects = reference.handle(DiscoveryRequested(now=now, stamp=now, query=query))
        want = effects[-1]
        assert isinstance(want, ReplyCandidates)
        got = manager.discover(query)
        assert got.node_ids == want.node_ids
        assert got.widened == want.widened


def test_full_run_client_parity():
    """End-to-end: a client driving a sharded system completes the same
    frames against the same edges as one driving the default 1x1 manager."""
    reference = build_system(with_client=True)
    sharded = build_system(shards=2, replicas=2, with_client=True)
    reference.run_for(10_000.0)
    sharded.run_for(10_000.0)
    ref_client = reference.clients["alice"]
    cp_client = sharded.clients["alice"]
    assert cp_client.stats.frames_completed == ref_client.stats.frames_completed
    assert cp_client.current_edge == ref_client.current_edge


def wrr_sequence(shards: int) -> tuple:
    """Resource-aware WRR picks over one seeded worldwide population —
    few distinct weights, so ties are common — and the number of shards
    that hold it."""
    rng = random.Random(11)
    system = EdgeSystem(SystemConfig(seed=3, control_plane_shards=shards))
    manager = system.manager
    for index in range(48):
        lat, lon = rng.uniform(-60.0, 60.0), rng.uniform(-180.0, 180.0)
        manager.receive_heartbeat(
            NodeStatus(
                node_id=f"n{index:02d}",
                lat=lat,
                lon=lon,
                geohash=encode(lat, lon, precision=9),
                cores=rng.choice((2, 4, 8)),
                capacity_fps=30.0,
                attached_users=0,
                utilization=rng.choice((0.0, 0.25, 0.5)),
            )
        )
    query = DiscoveryQuery(user_id="u", lat=0.0, lon=0.0, top_n=3)
    picks = [manager.wrr_assign(query) for _ in range(300)]
    owners = {manager.router.owner_of(s) for s in manager.alive_statuses()}
    return picks, len(owners)


@pytest.mark.parametrize("shards", [1, 4, 16])
def test_wrr_assigns_alike_at_every_shard_count(shards):
    """WRR offers its candidates in the nodes' global arrival order, so
    its tie-breaks and its float sum of weights — hence every pick — do
    not depend on how the registry is sharded."""
    want, _ = wrr_sequence(1)
    got, holders = wrr_sequence(shards)
    assert holders > shards // 2  # the registry really is spread
    assert got == want


# ----------------------------------------------------------------------
# Failover
# ----------------------------------------------------------------------
def test_shard_outage_promotes_standby_after_detection_window():
    system = build_system(shards=2, replicas=2)
    system.run_for(2_000.0)
    manager = system.manager
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
