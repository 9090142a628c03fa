"""Unit tests for the streaming trace-invariant suite (``repro.verify``).

Each invariant is exercised on hand-built synthetic event sequences —
one that trips it and one nearby sequence that must not — then the full
suite is run over real canonical chaos traces from the sim backend,
which must come back clean.
"""

import pytest

from repro.obs.events import (
    AttachmentExpired,
    CoveredFailover,
    DegradedFallback,
    DiscoveryIssued,
    DiscoveryReturned,
    FaultInjected,
    FrameDone,
    FrameStart,
    JoinAccept,
    JoinAttempt,
    JoinReject,
    ManagerPromote,
    NodeFail,
    NodeRestart,
    PhaseSpan,
    ProbeAnswered,
    ProbeSent,
    UncoveredFailure,
)
from repro.verify import (
    AttachmentConsistency,
    Budgets,
    ClientStall,
    DegradedFallbackCorrect,
    EventOrder,
    NoSplitBrain,
    PhaseReconciliation,
    PromotionBudget,
    SeqMonotonic,
    Violation,
    check_events,
    default_invariants,
)


def _check(events, invariant, **kwargs):
    return check_events(events, invariants=[invariant], **kwargs)


# ----------------------------------------------------------------------
# Violation / Budgets plumbing
# ----------------------------------------------------------------------
def test_violation_round_trips_through_dict():
    v = Violation("failover_stall", "user-01 stalled", 17, 1234.5, "user-01")
    assert Violation.from_dict(v.to_dict()) == v


def test_violation_str_names_end_of_trace():
    v = Violation("failover_stall", "silent", -1, 100.0)
    assert "end of trace" in str(v)
    assert "event #4" in str(Violation("x", "m", 4, 0.0))


def test_budgets_scaled_multiplies_every_budget():
    scaled = Budgets().scaled(0.2)
    assert scaled.promotion_ms == pytest.approx(50.0)
    assert scaled.failover_ms == pytest.approx(400.0)
    # identity scale returns the same object (cheap common case)
    b = Budgets()
    assert b.scaled(1.0) is b


def test_budgets_round_trip_and_unknown_keys_ignored():
    b = Budgets(promotion_ms=99.0)
    data = dict(b.to_dict(), bogus=1.0)
    assert Budgets.from_dict(data) == b


def test_check_events_rejects_nonpositive_time_scale():
    with pytest.raises(ValueError):
        check_events([], time_scale=0.0)


def test_check_events_skips_unknown_dict_event_types():
    events = [{"type": "from-the-future", "t_ms": 5.0}]
    assert check_events(events) == []


# ----------------------------------------------------------------------
# NoSplitBrain
# ----------------------------------------------------------------------
def test_no_split_brain_flags_double_promotion_in_one_epoch():
    events = [
        ManagerPromote(100.0, shard=0, replica=1, reason="failover"),
        ManagerPromote(150.0, shard=0, replica=2, reason="failover"),
    ]
    (violation,) = _check(events, NoSplitBrain(Budgets()))
    assert violation.invariant == "no_split_brain"
    assert "second primary" in violation.message
    assert violation.event_index == 1


def test_no_split_brain_allows_one_promotion_per_epoch():
    events = [
        ManagerPromote(100.0, shard=0, replica=1, reason="failover"),
        FaultInjected(200.0, "out-0", "outage_start", dst="shard:0"),
        ManagerPromote(300.0, shard=0, replica=0, reason="failover"),
    ]
    assert _check(events, NoSplitBrain(Budgets())) == []


def test_no_split_brain_flags_promotion_of_downed_replica():
    events = [
        ManagerPromote(50.0, shard=1, replica=2, reason="failover"),
        FaultInjected(100.0, "out-0", "outage_start", dst="shard:1"),
        ManagerPromote(150.0, shard=1, replica=2, reason="failover"),
    ]
    (violation,) = _check(events, NoSplitBrain(Budgets()))
    assert "downed primary" in violation.message
    assert violation.subject == "shard:1"


# ----------------------------------------------------------------------
# PromotionBudget
# ----------------------------------------------------------------------
def test_promotion_within_budget_is_clean():
    events = [
        FaultInjected(1_000.0, "out-0", "outage_start", dst="shard:0"),
        ManagerPromote(1_100.0, shard=0, replica=1, reason="failover"),
    ]
    assert _check(events, PromotionBudget(Budgets())) == []


def test_promotion_past_budget_is_flagged():
    events = [
        FaultInjected(1_000.0, "out-0", "outage_start", dst="shard:0"),
        ManagerPromote(1_600.0, shard=0, replica=1, reason="failover"),
    ]
    (violation,) = _check(events, PromotionBudget(Budgets()))
    assert violation.invariant == "promotion_budget"
    assert "600ms" in violation.message


def test_missing_promotion_needs_standby_evidence_or_assertion():
    events = [
        FaultInjected(1_000.0, "out-0", "outage_start", dst="shard:0"),
        NodeFail(5_000.0, "edge-z"),  # extends the trace past the budget
    ]
    # No promotion anywhere in the trace: replicas=1 is indistinguishable
    # from a broken standby, so nothing is reported by default...
    assert _check(events, PromotionBudget(Budgets())) == []
    # ...but the caller can assert standby capability.
    (violation,) = _check(
        events, PromotionBudget(Budgets(), expect_promotion=True)
    )
    assert "unanswered" in violation.message
    assert violation.event_index == 0


def test_expect_promotion_false_suppresses_even_with_other_promotes():
    events = [
        FaultInjected(1_000.0, "out-0", "outage_start", dst="shard:0"),
        ManagerPromote(1_050.0, shard=1, replica=1, reason="failover"),
    ]
    assert _check(
        events, PromotionBudget(Budgets(), expect_promotion=False)
    ) == []


# ----------------------------------------------------------------------
# ClientStall
# ----------------------------------------------------------------------
def test_client_stall_flags_gap_beyond_failover_budget():
    events = [
        JoinAccept(0.0, "user-01", "edge-a"),
        FrameDone(100.0, "user-01", "edge-a", 1, 50.0, latency_ms=50.0),
        FrameDone(2_500.0, "user-01", "edge-a", 2, 2_450.0, latency_ms=50.0),
    ]
    (violation,) = _check(events, ClientStall(Budgets()))
    assert violation.invariant == "failover_stall"
    assert "2400ms" in violation.message
    assert violation.subject == "user-01"


def test_client_stall_clean_when_frames_keep_flowing():
    events = [JoinAccept(0.0, "user-01", "edge-a")] + [
        FrameDone(t, "user-01", "edge-a", i + 1, t - 50.0, latency_ms=50.0)
        for i, t in enumerate((500.0, 1_500.0, 2_500.0))
    ]
    assert _check(events, ClientStall(Budgets())) == []


def test_client_stall_flags_join_without_any_frame():
    events = [JoinAccept(0.0, "user-02", "edge-a")]
    (violation,) = _check(events, ClientStall(Budgets()))
    assert "never completed" in violation.message
    assert violation.event_index == -1


def test_client_stall_flags_silent_tail():
    events = [
        JoinAccept(0.0, "user-01", "edge-a"),
        FrameDone(100.0, "user-01", "edge-a", 1, 50.0, latency_ms=50.0),
        NodeFail(3_000.0, "edge-b"),  # pushes end-of-trace past the budget
    ]
    (violation,) = _check(events, ClientStall(Budgets()))
    assert "silent for the last" in violation.message


# ----------------------------------------------------------------------
# SeqMonotonic
# ----------------------------------------------------------------------
def test_seq_monotonic_flags_repeat_and_regression():
    events = [
        FrameStart(0.0, "user-01", "edge-a", 1),
        FrameStart(10.0, "user-01", "edge-a", 2),
        FrameStart(20.0, "user-01", "edge-a", 2),
        FrameStart(30.0, "user-01", "edge-a", 1),
    ]
    violations = _check(events, SeqMonotonic(Budgets()))
    assert [v.event_index for v in violations] == [2, 3]
    assert all(v.invariant == "seq_monotonic" for v in violations)


def test_seq_monotonic_is_per_user():
    events = [
        FrameStart(0.0, "user-01", "edge-a", 5),
        FrameStart(10.0, "user-02", "edge-a", 5),
        FrameStart(20.0, "user-01", "edge-a", 6),
    ]
    assert _check(events, SeqMonotonic(Budgets())) == []


# ----------------------------------------------------------------------
# AttachmentConsistency
# ----------------------------------------------------------------------
def test_attachment_flags_join_to_dead_node():
    events = [
        NodeFail(100.0, "edge-a"),
        JoinAccept(200.0, "user-01", "edge-a"),
        NodeRestart(300.0, "edge-a"),
    ]
    (violation,) = _check(events, AttachmentConsistency(Budgets()))
    assert "joined dead node" in violation.message


def test_attachment_flags_failover_to_dead_node():
    events = [
        NodeFail(100.0, "edge-a"),
        CoveredFailover(200.0, "user-01", "edge-a"),
        NodeRestart(300.0, "edge-a"),  # restart clears attached-to-dead
    ]
    violations = _check(events, AttachmentConsistency(Budgets()))
    assert len(violations) == 1
    assert "failed over to dead node" in violations[0].message


def test_attachment_allows_inflight_completion_within_grace():
    events = [
        JoinAccept(0.0, "user-01", "edge-a"),
        NodeFail(100.0, "edge-a"),
        FrameDone(800.0, "user-01", "edge-a", 1, 50.0, latency_ms=750.0),
        NodeRestart(900.0, "edge-a"),
    ]
    assert _check(events, AttachmentConsistency(Budgets())) == []


def test_attachment_flags_completion_long_after_death():
    events = [
        NodeFail(100.0, "edge-a"),
        FrameDone(1_500.0, "user-01", "edge-a", 1, 50.0, latency_ms=1_450.0),
        NodeRestart(1_600.0, "edge-a"),
    ]
    (violation,) = _check(events, AttachmentConsistency(Budgets()))
    assert "after it died" in violation.message


def test_attachment_flags_double_attach():
    events = [
        JoinAccept(0.0, "user-01", "edge-a"),
        FrameStart(10.0, "user-01", "edge-b", 1),
    ]
    (violation,) = _check(events, AttachmentConsistency(Budgets()))
    assert "double-attach" in violation.message


def test_attachment_flags_stranded_admission_after_expiry():
    events = [
        AttachmentExpired(100.0, "edge-a", "user-01", idle_ms=800.0),
        FrameStart(1_200.0, "user-01", "edge-a", 1),
    ]
    (violation,) = _check(events, AttachmentConsistency(Budgets()))
    assert "stranded admission" in violation.message


def test_attachment_rejoin_clears_expiry():
    events = [
        AttachmentExpired(100.0, "edge-a", "user-01", idle_ms=800.0),
        JoinAccept(150.0, "user-01", "edge-a"),
        FrameStart(1_200.0, "user-01", "edge-a", 1),
    ]
    assert _check(events, AttachmentConsistency(Budgets())) == []


def test_attachment_flags_attached_to_dead_node_at_end():
    events = [
        JoinAccept(0.0, "user-01", "edge-a"),
        NodeFail(100.0, "edge-a"),
    ]
    (violation,) = _check(events, AttachmentConsistency(Budgets()))
    assert "at end of trace" in violation.message
    assert violation.event_index == -1


# ----------------------------------------------------------------------
# DegradedFallbackCorrect
# ----------------------------------------------------------------------
def test_degraded_fallback_without_evidence_is_flagged():
    events = [DegradedFallback(1_000.0, "user-01", reason="timeout")]
    (violation,) = _check(events, DegradedFallbackCorrect(Budgets()))
    assert "no manager outage" in violation.message


def test_degraded_fallback_near_outage_evidence_is_clean():
    events = [
        FaultInjected(900.0, "o", "outage", src="user-01", dst="central-manager"),
        DegradedFallback(1_000.0, "user-01", reason="timeout"),
    ]
    assert _check(events, DegradedFallbackCorrect(Budgets())) == []


def test_degraded_fallback_inside_open_window_is_clean():
    events = [
        FaultInjected(0.0, "o", "outage_start"),
        DegradedFallback(5_000.0, "user-01", reason="timeout"),
        FaultInjected(6_000.0, "o", "outage_end"),
    ]
    assert _check(events, DegradedFallbackCorrect(Budgets())) == []


def test_degraded_fallback_long_after_window_closes_is_flagged():
    events = [
        FaultInjected(0.0, "o", "outage_start"),
        FaultInjected(1_000.0, "o", "outage_end"),
        DegradedFallback(4_000.0, "user-01", reason="timeout"),
    ]
    (violation,) = _check(events, DegradedFallbackCorrect(Budgets()))
    assert "after the last outage evidence" in violation.message


# ----------------------------------------------------------------------
# EventOrder: one failing trace per rule
# ----------------------------------------------------------------------
def _order(events):
    return [
        (v.event_index, v.message)
        for v in _check(events, EventOrder(Budgets()))
    ]


def test_event_order_flags_a_discovery_answer_without_a_question():
    events = [
        DiscoveryIssued(0.0, "u1"),
        DiscoveryReturned(1.0, "u1", ("V1",)),
        DiscoveryReturned(2.0, "u1", ("V1",)),
        DiscoveryIssued(3.0, "u1"),
        DiscoveryReturned(4.0, "u1", ("V1",)),
    ]
    # the count stays negative: the next question pays the debt first
    assert _order(events) == [
        (2, "discovery_returned without issue for u1"),
        (4, "discovery_returned without issue for u1"),
    ]


def test_event_order_counts_probes_per_user_and_node():
    events = [
        ProbeSent(0.0, "u1", "V1"),
        ProbeAnswered(1.0, "u1", "V1", 5.0, 9.0),
        ProbeAnswered(1.0, "u1", "V2", 5.0, 9.0),
        ProbeAnswered(1.0, "u2", "V1", 5.0, 9.0),
    ]
    assert _order(events) == [
        (2, "probe_answered without send ('u1', 'V2')"),
        (3, "probe_answered without send ('u2', 'V1')"),
    ]


def test_event_order_flags_join_verdicts_without_an_attempt():
    events = [
        JoinAttempt(0.0, "u1", "V1"),
        JoinReject(1.0, "u1", "V1"),
        JoinAccept(2.0, "u1", "V1"),
    ]
    assert _order(events) == [(2, "join_accept without join_attempt (u1)")]
    assert _order(events[1:2]) == [(0, "join_reject without join_attempt (u1)")]


def test_event_order_flags_failover_before_any_failure_of_any_node():
    events = [
        UncoveredFailure(1.0, "u1"),
        CoveredFailover(2.0, "u2", "V2"),
        NodeFail(3.0, "V9"),  # global: any node's failure will do
        UncoveredFailure(4.0, "u1"),
    ]
    assert _order(events) == [
        (0, "uncovered_failure before any node_fail"),
        (1, "covered_failover before any node_fail"),
    ]


def test_event_order_flags_serving_before_attaching():
    served = [
        FrameStart(1.0, "u1", "V1", 1),
        FrameDone(2.0, "u1", "V1", 1, 1.0, 1.0),
    ]
    assert _order(served) == [(1, "completed frame_done before any attach (u1)")]
    # a covered failover attaches too; a lost frame is no serving
    assert _order([NodeFail(0.0, "V0"), CoveredFailover(0.5, "u1", "V1"), *served]) == []
    assert _order([FrameDone(2.0, "u1", "V1", 1, 1.0, None)]) == []


def test_event_order_flags_frame_events_before_their_start():
    events = [
        JoinAttempt(0.0, "u1", "V1"),
        JoinAccept(0.0, "u1", "V1"),
        FrameStart(1.0, "u1", "V1", 1),
        PhaseSpan(2.0, "u1", 2, "rtt", 1.0),
        FrameDone(2.0, "u1", "V1", 2, 1.0, 1.0),
        FrameDone(2.0, "u1", "V1", 3, 1.0, None),  # lost: may never start
    ]
    assert _order(events) == [
        (3, "phase_span before frame_start (u1, 2)"),
        (4, "frame_done before frame_start (u1, 2)"),
    ]
    # a trace with no frame start at all (capture began mid-run) is exempt
    assert _order([events[0], events[1], *events[3:]]) == []


# ----------------------------------------------------------------------
# PhaseReconciliation: the phase identity
# ----------------------------------------------------------------------
def _frame(rtt, queue, process, latency, phases=("rtt", "queue", "process")):
    durations = {"rtt": rtt, "queue": queue, "process": process}
    return [
        *(PhaseSpan(9.0, "u1", 1, phase, durations[phase]) for phase in phases),
        FrameDone(9.0, "u1", "V1", 1, 0.0, latency),
    ]


def _reconcile(events):
    return [
        (v.event_index, v.message)
        for v in _check(events, PhaseReconciliation(Budgets()))
    ]


def test_phase_identity_holds_within_the_float_tolerance():
    assert _reconcile(_frame(1.0, 2.0, 3.0, 6.0 + 5e-7)) == []
    assert _reconcile(_frame(1.0, 2.0, 3.0, 6.0 + 2e-6)) == [
        (3, "frame ('u1', 1): phases sum 6.000000 != latency 6.000002 "
         "(delta 0.000002)")
    ]


def test_phase_identity_needs_all_three_phases():
    events = _frame(1.0, 2.0, 3.0, 3.0, phases=("rtt", "queue"))
    assert _reconcile(events) == [(2, "frame ('u1', 1): phases ['queue', 'rtt']")]


def test_phase_identity_counts_spans_anywhere_in_the_trace():
    done, *spans = reversed(_frame(1.0, 2.0, 3.0, 6.0))
    assert _reconcile([done, *spans]) == []  # spans after the frame_done
    assert _reconcile([done]) == []  # no spans: capture started mid-run
    lost = FrameDone(9.0, "u1", "V1", 1, 0.0, None)
    assert _reconcile([*_frame(1.0, 2.0, 3.0, 60.0)[:3], lost]) == []


# ----------------------------------------------------------------------
# The full suite over real traces
# ----------------------------------------------------------------------
def test_default_suite_has_every_invariant():
    names = {inv.name for inv in default_invariants(Budgets())}
    assert names == {
        "no_split_brain",
        "promotion_budget",
        "failover_stall",
        "seq_monotonic",
        "attachment_consistency",
        "degraded_fallback",
    }


def test_canonical_sim_chaos_trace_is_invariant_clean():
    from repro.faults.scenarios import CANONICAL, run_chaos

    report, events = run_chaos(CANONICAL, seed=0)
    assert report.ok, (report.problems, report.task_errors)
    assert check_events(events) == []
    # the wire-format path must agree with the typed path
    dicts = [e.to_dict() for e in events]
    assert check_events(dicts) == []


def test_canonical_controlplane_trace_is_invariant_clean():
    from repro.faults.scenarios import controlplane, run_chaos

    report, events = run_chaos(controlplane(), seed=0)
    assert report.ok, (report.problems, report.task_errors)
    assert check_events(events, expect_promotion=True) == []


def test_weakened_detection_budget_trips_the_suite():
    """The CI smoke scenario: a 4 s detection window cannot meet the
    nominal 250 ms promotion budget — the suite must see it."""
    from repro.faults.scenarios import controlplane, run_chaos

    _, events = run_chaos(
        controlplane(), seed=0, config_overrides={"failure_detection_ms": 4_000.0}
    )
    violations = check_events(events, expect_promotion=True)
    assert any(v.invariant == "promotion_budget" for v in violations)
