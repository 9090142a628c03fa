"""Golden-schema tests: the simulator and the live loopback runtime
must tell the same story in the same event language.

One seeded sim scenario and one loopback live scenario each run the
full lifecycle — discovery, probing, join, frame serving, a node
failure, a covered failover — and both traces must (a) contain every
golden lifecycle event type, (b) satisfy the causal ordering rules
(join before serve, failover only after failure, answers only after
questions), and (c) reconcile their phase spans against the recorded
frame latencies."""

import pytest

from repro.obs import GOLDEN_LIFECYCLE_TYPES, TraceAnalyzer, event_from_dict, load_trace
from repro.obs.scenarios import run_live_trace_scenario_sync, run_sim_trace_scenario
from repro.verify import Budgets, EventOrder, PhaseReconciliation, check_events


def order_violations(events):
    return check_events(events, invariants=[EventOrder(Budgets())])


def reconciliation_violations(events):
    return check_events(events, invariants=[PhaseReconciliation(Budgets())])


@pytest.fixture(scope="module")
def sim_events():
    return run_sim_trace_scenario(seed=7, duration_ms=12_000.0)


@pytest.fixture(scope="module")
def live_events():
    return run_live_trace_scenario_sync(frames=6)


# ----------------------------------------------------------------------
# Golden schema: both backends emit the full lifecycle vocabulary
# ----------------------------------------------------------------------
def test_sim_trace_covers_golden_types(sim_events):
    observed = {e.type for e in sim_events}
    assert GOLDEN_LIFECYCLE_TYPES <= observed


def test_live_trace_covers_golden_types(live_events):
    observed = {e.type for e in live_events}
    assert GOLDEN_LIFECYCLE_TYPES <= observed


def test_backends_share_one_schema(sim_events, live_events):
    """Any type the live runtime emits, the sim vocabulary knows (and
    vice versa for everything non-timing-dependent): a JSONL line from
    either backend round-trips through the same registry."""
    for event in [*sim_events, *live_events]:
        wire = event.to_dict()
        assert event_from_dict(wire).to_dict() == wire


# ----------------------------------------------------------------------
# Ordering rules
# ----------------------------------------------------------------------
def test_sim_trace_event_order(sim_events):
    assert order_violations(sim_events) == []


def test_live_trace_event_order(live_events):
    assert order_violations(live_events) == []


# ----------------------------------------------------------------------
# Phase reconciliation: rtt + queue + process == latency
# ----------------------------------------------------------------------
def test_sim_phases_reconcile_exactly(sim_events):
    assert reconciliation_violations(sim_events) == []
    analyzer = TraceAnalyzer(sim_events)
    total = analyzer.total_breakdown()
    assert total.frames > 0
    assert total.phase_sum_ms == pytest.approx(total.latency_ms)


def test_live_phases_reconcile_exactly(live_events):
    assert reconciliation_violations(live_events) == []
    analyzer = TraceAnalyzer(live_events)
    total = analyzer.total_breakdown()
    assert total.frames > 0
    assert total.phase_sum_ms == pytest.approx(total.latency_ms)


# ----------------------------------------------------------------------
# Failover story
# ----------------------------------------------------------------------
def test_sim_failover_recovery_measured(sim_events):
    gaps = TraceAnalyzer(sim_events).failover_gaps()
    assert gaps, "the seeded sim scenario must produce at least one recovery"
    assert all(gap >= 0.0 for _, gap in gaps)


def test_live_failover_recovery_measured(live_events):
    gaps = TraceAnalyzer(live_events).failover_gaps()
    assert gaps, "the live scenario must produce at least one recovery"
    assert all(gap >= 0.0 for _, gap in gaps)


# ----------------------------------------------------------------------
# JSONL sink parity
# ----------------------------------------------------------------------
def test_sim_jsonl_sink_matches_ring(tmp_path):
    path = tmp_path / "sim.jsonl"
    events = run_sim_trace_scenario(seed=11, sink_path=path, duration_ms=4_000.0)
    loaded = load_trace(path)
    assert loaded == [e.to_dict() for e in events]
    assert reconciliation_violations(loaded) == []


def test_live_jsonl_sink_matches_ring(tmp_path):
    path = tmp_path / "live.jsonl"
    events = run_live_trace_scenario_sync(sink_path=path, frames=4)
    loaded = load_trace(path)
    assert loaded == [e.to_dict() for e in events]
    assert order_violations(loaded) == []
