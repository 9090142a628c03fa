"""Differential chaos tests: the same seeded fault plan drives the
simulator and the live asyncio runtime, and both must uphold the same
recovery invariants.

Also pins the determinism contract: same seed → identical sim trace;
an *empty* plan must leave the simulation bit-identical to running
with no injector at all (fault hooks are zero-cost when idle).
"""

import pytest

from repro.core.client import EdgeClient
from repro.core.config import SystemConfig
from repro.core.system import EdgeSystem
from repro.faults import FaultInjector, FaultPlan, ManagerOutage, Window
from repro.faults.scenarios import CANONICAL, chaos_plan, run_chaos
from repro.geo.point import GeoPoint
from repro.net.topology import EndpointSpec
from repro.nodes.hardware import profile_by_name
from repro.obs.tracer import Tracer


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
def test_sim_chaos_same_seed_identical_trace():
    report_a, events_a = run_chaos(CANONICAL, seed=7)
    report_b, events_b = run_chaos(CANONICAL, seed=7)
    assert report_a.ok and report_b.ok
    assert [e.to_dict() for e in events_a] == [e.to_dict() for e in events_b]
    assert report_a.injected == report_b.injected


def test_sim_chaos_seed_changes_trace():
    _, events_a = run_chaos(CANONICAL, seed=7)
    _, events_b = run_chaos(CANONICAL, seed=8)
    assert [e.to_dict() for e in events_a] != [e.to_dict() for e in events_b]


def _plain_scenario_events(faults):
    """A small fault-free scenario, with or without an (idle) injector."""
    tracer = Tracer()
    system = EdgeSystem(
        SystemConfig(seed=5, probing_period_ms=2_000.0),
        trace=tracer,
        faults=faults,
    )
    center = GeoPoint(44.97, -93.25)
    for i, name in enumerate(("V1", "V2")):
        system.add_node(
            f"edge-{name}",
            profile_by_name(name),
            EndpointSpec(center.offset_km(1.0 + i, -1.0)),
        )
    system.add_client_endpoint("alice", EndpointSpec(center))
    system.add_client(EdgeClient(system, "alice"))
    system.run_for(8_000.0)
    return [e.to_dict() for e in tracer.events()]


def test_empty_plan_is_bit_identical_to_no_injector():
    without = _plain_scenario_events(None)
    with_idle = _plain_scenario_events(FaultInjector(FaultPlan(), seed=5))
    assert without == with_idle
    assert any(e["type"] == "frame_done" for e in without)  # a real run


# ----------------------------------------------------------------------
# Chaos recovery, per backend
# ----------------------------------------------------------------------
def test_sim_chaos_recovers_with_canonical_plan():
    report, events = run_chaos(CANONICAL, seed=0)
    assert report.ok, report.problems
    # every fault family of the canonical plan actually fired
    assert report.injected.get("drop", 0) > 0
    assert report.injected.get("delay", 0) > 0
    assert report.injected.get("crash", 0) == 1
    assert report.injected.get("outage", 0) > 0
    assert report.injected.get("gray_start", 0) == 1
    types = {e.type for e in events}
    assert "fault_injected" in types
    assert "node_restart" in types
    assert "degraded_fallback" in types
    assert report.frames_completed > 0


@pytest.mark.slow
def test_live_chaos_recovers_with_canonical_plan():
    report, _ = run_chaos(CANONICAL, backend="live", seed=0)
    assert report.ok, (report.problems, report.task_errors)
    assert report.task_errors == []
    assert report.injected.get("crash", 0) == 1
    assert report.injected.get("restart", 0) == 1
    assert report.event_counts.get("fault_injected", 0) > 0
    assert report.event_counts.get("node_restart", 0) == 1
    assert report.frames_completed > 0


@pytest.mark.slow
def test_chaos_parity_shared_invariants():
    """The differential check: one plan, two runtimes, same contract."""
    sim_report, sim_events = run_chaos(CANONICAL, seed=1)
    live_report, _ = run_chaos(CANONICAL, backend="live", seed=1)
    for report in (sim_report, live_report):
        assert report.ok, (report.backend, report.problems)
        assert report.frames_completed > 0
        # the crash fired and the node came back in both worlds
        assert report.injected.get("crash", 0) == 1
        assert report.event_counts.get("node_restart", 0) == 1
        # message chaos actually happened
        assert report.injected.get("drop", 0) > 0
    sim_types = {e.type for e in sim_events}
    assert "covered_failover" in sim_types
    assert live_report.event_counts.get("covered_failover", 0) > 0


@pytest.mark.slow
def test_live_chaos_drains_crash_window_past_horizon():
    """A NodeCrash whose restart lands *beyond* the plan horizon must
    still be executed before teardown: the controller drains the whole
    action script, so the cluster is torn down with the node back up and
    no cancelled-task debris leaking into the loop."""
    from repro.faults import NodeCrash
    from repro.nodes.hardware import VOLUNTEER_PROFILES

    horizon = 2_000.0
    node_id = f"edge-01-{VOLUNTEER_PROFILES[0].name}"
    plan = FaultPlan(
        crashes=(
            NodeCrash(
                "late-crash", node_id, at_ms=1_000.0, restart_at_ms=3_000.0
            ),
        )
    )
    report, events = run_chaos(
        CANONICAL, backend="live", seed=3, horizon_ms=horizon, plan=plan
    )
    assert report.task_errors == []
    # both halves of the crash window ran, even the post-horizon restart
    assert report.injected.get("crash", 0) == 1
    assert report.injected.get("restart", 0) == 1
    restarts = [e for e in events if e.type == "node_restart"]
    assert [e.node_id for e in restarts] == [node_id]
    # end-state recovery invariants hold on the torn-down cluster
    assert report.problems == []


def test_live_backend_refuses_a_shard_outage_before_anything_boots(monkeypatch):
    """A LocalCluster runs one manager: the runner refuses the
    combination instead of executing a whole-manager stop in its place."""
    from repro.runtime.launcher import LocalCluster

    def no_cluster(*args, **kwargs):
        raise AssertionError("a LocalCluster was built")

    monkeypatch.setattr(LocalCluster, "__init__", no_cluster)
    plan = FaultPlan(
        outages=(ManagerOutage("shard-down", Window(1_000.0, 2_000.0), shard=0),)
    )
    with pytest.raises(ValueError, match="sim backend only"):
        run_chaos(CANONICAL, backend="live", plan=plan)
    with pytest.raises(ValueError, match="sim backend only"):
        run_chaos(CANONICAL, backend="live", config_overrides={"top_n": 1})
    with pytest.raises(ValueError, match="unknown backend"):
        run_chaos(CANONICAL, backend="metro")
    wide = FaultPlan(
        outages=(ManagerOutage("shard-down", Window(1_000.0, 2_000.0), shard=3),)
    )
    with pytest.raises(ValueError, match="targets shard 3 of a 1-shard"):
        run_chaos(CANONICAL, plan=wide)


# ----------------------------------------------------------------------
# The canonical plan itself
# ----------------------------------------------------------------------
def test_chaos_plan_covers_every_fault_family():
    plan = chaos_plan(["edge-a", "edge-b", "edge-c"], horizon_ms=20_000.0)
    assert plan == CANONICAL.default_plan(20_000.0)
    assert plan.message_faults
    assert plan.partitions
    assert plan.crashes and plan.crashes[0].restart_at_ms is not None
    assert plan.outages
    assert plan.gray_nodes
    rule_ids = [r.rule_id for r in plan.all_rules()]
    assert len(rule_ids) == len(set(rule_ids))


def test_chaos_plan_tail_is_fault_free():
    """The last 20% of the horizon is a settle window: no rule is
    active there, so a run always ends in recoverable conditions."""
    horizon = 20_000.0
    plan = chaos_plan(["edge-a", "edge-b", "edge-c"], horizon_ms=horizon)
    settle_start = 0.8 * horizon
    for fault in plan.message_faults:
        assert fault.window.end_ms <= settle_start
    for cut in plan.partitions:
        assert cut.window.end_ms <= settle_start
    for outage in plan.outages:
        assert outage.window.end_ms <= settle_start
    for gray in plan.gray_nodes:
        assert gray.window.end_ms <= settle_start
    for crash in plan.crashes:
        assert (crash.restart_at_ms or crash.at_ms) <= settle_start
