"""Unit tests for ``repro.faults``: plans, matching, and the injector."""

import math

import pytest

from repro.faults import (
    MANAGER_ID,
    FaultInjector,
    FaultPlan,
    GrayNode,
    ManagerOutage,
    MessageFault,
    NodeCrash,
    Partition,
    Window,
)
from repro.obs.tracer import Tracer


# ----------------------------------------------------------------------
# Plan building blocks
# ----------------------------------------------------------------------
def test_window_is_half_open():
    w = Window(100.0, 200.0)
    assert not w.contains(99.9)
    assert w.contains(100.0)
    assert w.contains(199.9)
    assert not w.contains(200.0)


def test_window_defaults_cover_everything():
    w = Window()
    assert w.contains(0.0)
    assert w.contains(1e12)
    assert w.end_ms == math.inf


def test_window_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        Window(200.0, 100.0)


def test_message_fault_glob_matching():
    fault = MessageFault("r", src="user-*", dst="edge-a", ops=("frame",))
    assert fault.matches("user-01", "edge-a", "frame", 0.0)
    assert fault.matches("user-99", "edge-a", "frame", 0.0)
    assert not fault.matches("user-01", "edge-b", "frame", 0.0)
    assert not fault.matches("user-01", "edge-a", "join", 0.0)
    assert not fault.matches("edge-a", "user-01", "frame", 0.0)


def test_message_fault_empty_ops_matches_all_ops():
    fault = MessageFault("r", drop_p=1.0)
    for op in ("discover", "heartbeat", "probe", "join", "frame", "leave"):
        assert fault.matches("x", "y", op, 0.0)


def test_message_fault_validates_probabilities():
    with pytest.raises(ValueError):
        MessageFault("r", drop_p=1.5)
    with pytest.raises(ValueError):
        MessageFault("r", duplicate_p=-0.1)
    with pytest.raises(ValueError):
        MessageFault("r", ops=("not-an-op",))


def test_partition_blocks_both_directions_when_symmetric():
    cut = Partition("p", a="user-*", b="edge-b", window=Window(0.0, 100.0))
    assert cut.blocks("user-01", "edge-b", 50.0)
    assert cut.blocks("edge-b", "user-01", 50.0)
    assert not cut.blocks("user-01", "edge-b", 100.0)
    assert not cut.blocks("user-01", "edge-a", 50.0)


def test_partition_asymmetric_blocks_one_direction():
    cut = Partition("p", a="user-*", b="edge-b", symmetric=False)
    assert cut.blocks("user-01", "edge-b", 0.0)
    assert not cut.blocks("edge-b", "user-01", 0.0)


def test_node_crash_validates_restart_after_crash():
    NodeCrash("c", "edge-a", at_ms=100.0, restart_at_ms=200.0)
    with pytest.raises(ValueError):
        NodeCrash("c", "edge-a", at_ms=100.0, restart_at_ms=50.0)


def test_plan_rejects_duplicate_rule_ids():
    with pytest.raises(ValueError):
        FaultPlan(
            message_faults=(MessageFault("dup"),),
            outages=(ManagerOutage("dup", Window(0, 1)),),
        )


def test_plan_len_and_describe():
    plan = FaultPlan(
        message_faults=(MessageFault("m", drop_p=0.5),),
        crashes=(NodeCrash("c", "edge-a", at_ms=10.0),),
    )
    assert len(plan) == 2
    lines = plan.describe()
    assert any(line.startswith("m:") for line in lines)
    assert any(line.startswith("c:") for line in lines)


# ----------------------------------------------------------------------
# Injector decisions
# ----------------------------------------------------------------------
def test_injector_no_rules_always_delivers():
    injector = FaultInjector(FaultPlan(), seed=1)
    verdict = injector.decide("a", "b", "frame", 0.0)
    assert verdict.deliver
    assert verdict.extra_delay_ms == 0.0
    assert verdict.copies == 1


def test_injector_certain_drop_inside_window_only():
    plan = FaultPlan(
        message_faults=(
            MessageFault("d", window=Window(100.0, 200.0), drop_p=1.0),
        )
    )
    injector = FaultInjector(plan, seed=1)
    assert injector.decide("a", "b", "frame", 50.0).deliver
    verdict = injector.decide("a", "b", "frame", 150.0)
    assert not verdict.deliver
    assert verdict.rule_id == "d"
    assert injector.decide("a", "b", "frame", 250.0).deliver


def test_injector_delay_composes_with_duplicate():
    plan = FaultPlan(
        message_faults=(
            MessageFault("lag", delay_ms=40.0),
            MessageFault("echo", duplicate_p=1.0),
        )
    )
    injector = FaultInjector(plan, seed=1)
    verdict = injector.decide("a", "b", "frame", 0.0)
    assert verdict.deliver
    assert verdict.extra_delay_ms == pytest.approx(40.0)
    assert verdict.copies == 2


def test_injector_partition_beats_message_rules():
    plan = FaultPlan(
        message_faults=(MessageFault("lag", delay_ms=40.0),),
        partitions=(Partition("cut", a="a", b="b"),),
    )
    injector = FaultInjector(plan, seed=1)
    verdict = injector.decide("a", "b", "frame", 0.0)
    assert not verdict.deliver
    assert verdict.kind == "partition"


def test_injector_outage_blocks_manager_traffic_only():
    plan = FaultPlan(outages=(ManagerOutage("o", Window(0.0, 100.0)),))
    injector = FaultInjector(plan, seed=1)
    assert not injector.decide("u", MANAGER_ID, "discover", 50.0).deliver
    assert injector.decide("u", "edge-a", "frame", 50.0).deliver
    assert injector.decide("u", MANAGER_ID, "discover", 150.0).deliver
    assert injector.manager_down(50.0)
    assert not injector.manager_down(150.0)


def test_injector_same_seed_same_decision_sequence():
    plan = FaultPlan(message_faults=(MessageFault("d", drop_p=0.5),))
    def sequence(seed):
        injector = FaultInjector(plan, seed=seed)
        return [
            injector.decide("a", "b", "frame", float(t)).deliver
            for t in range(200)
        ]
    first = sequence(7)
    assert first == sequence(7)
    assert first != sequence(8)
    assert any(first) and not all(first)  # both outcomes appear


def test_injector_rules_draw_from_independent_streams():
    """Adding a second rule must not perturb the first rule's draws."""
    lone = FaultInjector(
        FaultPlan(message_faults=(MessageFault("d", drop_p=0.5),)), seed=3
    )
    paired = FaultInjector(
        FaultPlan(
            message_faults=(
                MessageFault("d", drop_p=0.5),
                MessageFault("other", src="nobody", drop_p=0.5),
            )
        ),
        seed=3,
    )
    lone_seq = [lone.decide("a", "b", "frame", float(t)).deliver for t in range(100)]
    paired_seq = [
        paired.decide("a", "b", "frame", float(t)).deliver for t in range(100)
    ]
    assert lone_seq == paired_seq


def _decision_seq(injector, n=200):
    out = []
    for t in range(n):
        d = injector.decide("a", "b", "frame", float(t))
        out.append((d.deliver, d.copies, round(d.extra_delay_ms, 9)))
    return out


def test_injector_rule_removal_leaves_surviving_streams_unperturbed():
    """Dropping rules never changes the draws of the rules that remain.

    This is the determinism contract the schedule-search shrinker leans
    on: a shrunk plan must replay its surviving faults exactly as the
    original did, or delta debugging would chase phantom timing shifts.
    """
    full = FaultPlan(
        message_faults=(
            MessageFault("keep", drop_p=0.4, delay_ms=10.0, delay_p=0.5),
            MessageFault("dead-weight", src="nobody", drop_p=0.9),
            MessageFault("more-weight", src="also-nobody", duplicate_p=0.9),
        )
    )
    shrunk = FaultPlan(
        message_faults=(
            MessageFault("keep", drop_p=0.4, delay_ms=10.0, delay_p=0.5),
        )
    )
    assert _decision_seq(FaultInjector(full, seed=7)) == _decision_seq(
        FaultInjector(shrunk, seed=7)
    )


def test_injector_rule_reordering_leaves_streams_unperturbed():
    """Rule order must not matter to any rule's private stream.

    Both rules match every frame, so first-drop-wins arbitration and the
    delay compositing both run — in both orders — over identical draws.
    """
    a = MessageFault("a", drop_p=0.3)
    b = MessageFault("b", delay_ms=25.0, delay_jitter_ms=10.0, delay_p=0.6)
    forward = FaultInjector(FaultPlan(message_faults=(a, b)), seed=11)
    backward = FaultInjector(FaultPlan(message_faults=(b, a)), seed=11)
    assert _decision_seq(forward) == _decision_seq(backward)


def test_plan_round_trips_through_dict():
    from repro.faults import plan_from_dict, plan_to_dict
    from repro.faults.scenarios import chaos_plan, controlplane_chaos_plan
    import json

    for plan in (
        chaos_plan(["edge-a", "edge-b", "edge-c"]),
        controlplane_chaos_plan([0, 1], ["edge-a", "edge-b"]),
        FaultPlan(outages=(ManagerOutage("forever", Window(100.0)),)),
    ):
        wire = json.loads(json.dumps(plan_to_dict(plan)))
        assert plan_from_dict(wire) == plan


def test_injector_node_actions_sorted_and_complete():
    plan = FaultPlan(
        crashes=(NodeCrash("c", "edge-a", at_ms=300.0, restart_at_ms=900.0),),
        gray_nodes=(GrayNode("g", "edge-b", Window(100.0, 500.0), slowdown=4.0),),
        outages=(ManagerOutage("o", Window(200.0, 400.0)),),
    )
    injector = FaultInjector(plan, seed=1)
    actions = injector.node_actions()
    times = [a.t_ms for a in actions]
    assert times == sorted(times)
    kinds = {(a.kind, a.t_ms) for a in actions}
    assert ("crash", 300.0) in kinds
    assert ("restart", 900.0) in kinds
    assert ("gray_start", 100.0) in kinds
    assert ("gray_end", 500.0) in kinds
    assert ("outage_start", 200.0) in kinds
    assert ("outage_end", 400.0) in kinds


def test_injector_emits_typed_trace_events_and_counts():
    tracer = Tracer()
    plan = FaultPlan(message_faults=(MessageFault("d", drop_p=1.0),))
    injector = FaultInjector(plan, seed=1, tracer=tracer)
    injector.decide("a", "b", "frame", 5.0)
    events = list(tracer.events())
    assert len(events) == 1
    assert events[0].type == "fault_injected"
    assert events[0].rule_id == "d"
    assert events[0].kind == "drop"
    assert injector.injected["drop"] == 1


def test_injector_event_clock_overrides_timestamps():
    tracer = Tracer()
    plan = FaultPlan(message_faults=(MessageFault("d", drop_p=1.0),))
    injector = FaultInjector(plan, seed=1, tracer=tracer, event_clock=lambda: 123.0)
    injector.decide("a", "b", "frame", 5.0)
    (event,) = list(tracer.events())
    assert event.t_ms == pytest.approx(123.0)
