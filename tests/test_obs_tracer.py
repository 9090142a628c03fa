"""Unit tests for the observability layer: events, tracer, sinks,
analyzer, kernel profiler, and the deprecated metrics shims."""

import json
import warnings

import pytest

from repro.metrics.collector import MetricsCollector
from repro.obs import (
    EVENT_TYPES,
    CoveredFailover,
    FrameDone,
    FrameStart,
    JoinAccept,
    JoinAttempt,
    JsonlSink,
    KernelProfiler,
    ListSink,
    NodeFail,
    PhaseSpan,
    ProbeSent,
    TraceAnalyzer,
    Tracer,
    event_from_dict,
    load_trace,
    validate_event_order,
)
from repro.sim.kernel import Simulator


# ----------------------------------------------------------------------
# Events
# ----------------------------------------------------------------------
def test_event_wire_roundtrip():
    original = FrameDone(12.5, "u1", "V1", 7, 10.0, 42.25)
    wire = original.to_dict()
    assert wire["type"] == "frame_done"
    restored = event_from_dict(wire)
    assert isinstance(restored, FrameDone)
    assert restored.to_dict() == wire


def test_event_registry_covers_all_tags():
    for tag, cls in EVENT_TYPES.items():
        assert cls.type == tag


def test_event_from_dict_rejects_unknown_type():
    with pytest.raises(KeyError):
        event_from_dict({"type": "warp_core_breach", "t_ms": 0.0})


#: ``shard_route`` / ``registry_handoff`` lines as written while shard
#: maps carried an ``epoch``; the field is gone, the lines are refused.
EPOCH_FORMAT_LINES = [
    '{"type": "shard_route", "t_ms": 12.0, "user_id": "u3", "shards": [0, 2],'
    ' "epoch": 0, "cross_shard": true}',
    '{"type": "registry_handoff", "t_ms": 40.0, "source": "shard1/r0",'
    ' "target": "shard1/r1", "entries": 17, "epoch": 0, "reason": "rejoin"}',
]


@pytest.mark.parametrize(
    "line", EPOCH_FORMAT_LINES, ids=["shard_route", "registry_handoff"]
)
def test_event_from_dict_refuses_the_epoch_format(line):
    wire = json.loads(line)
    with pytest.raises(TypeError):
        event_from_dict(wire)
    del wire["epoch"]
    assert event_from_dict(wire).to_dict() == wire


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
def test_tracer_captures_and_filters():
    tracer = Tracer()
    tracer.emit(ProbeSent(1.0, "u1", "V1"))
    tracer.emit(FrameDone(2.0, "u1", "V1", 1, 0.0, 30.0))
    tracer.emit(ProbeSent(3.0, "u1", "V2"))
    assert len(tracer) == 3
    probes = tracer.events("probe_sent")
    assert [e.node_id for e in probes] == ["V1", "V2"]
    tracer.clear()
    assert len(tracer) == 0


def test_tracer_ring_drops_oldest():
    tracer = Tracer(capacity=2)
    for i in range(5):
        tracer.emit(ProbeSent(float(i), "u1", f"V{i}"))
    assert [e.t_ms for e in tracer.events()] == [3.0, 4.0]


def test_disabled_tracer_still_feeds_subscribers():
    tracer = Tracer.disabled()
    assert not tracer.listening  # an event built now would reach nobody
    seen = []
    tracer.subscribe(seen.append)
    tracer.emit(ProbeSent(1.0, "u1", "V1"))
    assert not tracer.enabled and not tracer and tracer.listening
    assert len(tracer) == 0  # no capture...
    assert len(seen) == 1  # ...but reduction saw the event
    assert Tracer().listening


def test_jsonl_sink_roundtrip(tmp_path):
    path = tmp_path / "trace.jsonl"
    tracer = Tracer(sink=path)
    tracer.emit(JoinAccept(1.0, "u1", "V1"))
    tracer.emit(FrameDone(2.0, "u1", "V1", 1, 0.5, None))
    tracer.close()
    loaded = load_trace(path)
    assert [e["type"] for e in loaded] == ["join_accept", "frame_done"]
    assert loaded[1]["latency_ms"] is None
    assert loaded == [e.to_dict() for e in tracer.events()]


def test_list_sink_receives_events():
    sink = ListSink()
    tracer = Tracer(sink=sink)
    tracer.emit(NodeFail(5.0, "V1"))
    assert [e.node_id for e in sink.events] == ["V1"]


def test_sink_silent_when_capture_disabled(tmp_path):
    path = tmp_path / "idle.jsonl"
    sink = JsonlSink(path)
    tracer = Tracer(enabled=False, sink=sink)
    tracer.emit(NodeFail(1.0, "V1"))
    tracer.close()
    assert sink.events_written == 0
    assert not path.exists()  # lazily opened: never touched


# ----------------------------------------------------------------------
# Analyzer
# ----------------------------------------------------------------------
def _served_frame(user, frame_id, t0, rtt, queue, process):
    latency = rtt + queue + process
    return [
        FrameStart(t0, user, "V1", frame_id),
        PhaseSpan(t0 + latency, user, frame_id, "rtt", rtt),
        PhaseSpan(t0 + latency, user, frame_id, "queue", queue),
        PhaseSpan(t0 + latency, user, frame_id, "process", process),
        FrameDone(t0 + latency, user, "V1", frame_id, t0, latency),
    ]


def test_phase_breakdown_reconciles():
    events = [
        JoinAttempt(0.0, "u1", "V1"),
        JoinAccept(0.0, "u1", "V1"),
        *_served_frame("u1", 1, 1.0, 10.0, 2.0, 30.0),
        *_served_frame("u1", 2, 60.0, 12.0, 0.0, 28.0),
    ]
    analyzer = TraceAnalyzer(events)
    assert analyzer.reconciliation_errors() == []
    assert validate_event_order(events) == []
    breakdown = analyzer.phase_breakdown()["u1"]
    assert breakdown.frames == 2
    assert breakdown.rtt_ms == pytest.approx(22.0)
    assert breakdown.phase_sum_ms == pytest.approx(breakdown.latency_ms)


def test_reconciliation_catches_bad_spans():
    events = [
        JoinAttempt(0.0, "u1", "V1"),
        JoinAccept(0.0, "u1", "V1"),
        *_served_frame("u1", 1, 1.0, 10.0, 2.0, 30.0),
    ]
    events[3].duration_ms += 5.0  # corrupt the rtt span
    assert TraceAnalyzer(events).reconciliation_errors()


def test_order_validator_flags_serve_before_attach():
    events = _served_frame("u1", 1, 1.0, 10.0, 2.0, 30.0)
    violations = validate_event_order(events)
    assert any("before any attach" in v for v in violations)


def test_order_validator_flags_failover_before_failure():
    events = [
        JoinAttempt(0.0, "u1", "V1"),
        JoinAccept(0.0, "u1", "V1"),
        CoveredFailover(5.0, "u1", "V2"),
    ]
    violations = validate_event_order(events)
    assert any("before any node_fail" in v for v in violations)


def test_failover_gap_histogram():
    events = [
        JoinAttempt(0.0, "u1", "V1"),
        JoinAccept(0.0, "u1", "V1"),
        NodeFail(100.0, "V1"),
        CoveredFailover(130.0, "u1", "V2"),
    ]
    analyzer = TraceAnalyzer(events)
    assert analyzer.failover_gaps() == [("u1", 30.0)]
    assert analyzer.failover_gap_histogram(bin_ms=50.0) == [(0.0, 1)]


def test_per_user_timeline_includes_relevant_node_fail():
    events = [
        JoinAttempt(0.0, "u1", "V1"),
        JoinAccept(0.0, "u1", "V1"),
        NodeFail(10.0, "V1"),
        NodeFail(11.0, "V9"),  # never interacted with u1
    ]
    timeline = TraceAnalyzer(events).per_user_timeline("u1")
    kinds = [(e["type"], e.get("node_id")) for e in timeline]
    assert ("node_fail", "V1") in kinds
    assert ("node_fail", "V9") not in kinds


# ----------------------------------------------------------------------
# Kernel profiler
# ----------------------------------------------------------------------
def test_kernel_profiler_aggregates_by_handler_kind():
    sim = Simulator()
    sim.profiler = KernelProfiler()
    sim.schedule(1.0, lambda: None, label="client.u1.probe")
    sim.schedule(2.0, lambda: None, label="client.u2.probe")
    sim.schedule(3.0, lambda: None, label="node.V1.heartbeat")
    sim.run()
    rows = {row[0]: row for row in sim.profiler.rows()}
    assert rows["probe"][1] == 2  # count column
    assert rows["heartbeat"][1] == 1
    assert sim.profiler.mean_queue_depth >= 0.0


def test_on_event_reduces_like_the_old_mutators():
    collector = MetricsCollector()
    collector.on_event(ProbeSent(0.0, "u1", "V1"))
    collector.on_event(FrameDone(40.0, "u1", "V1", 1, 0.0, 40.0))
    collector.on_event(FrameDone(80.0, "u1", "V1", 2, 50.0, None))
    assert collector.total_probes() == 1
    assert collector.completed_latencies() == [40.0]
    assert [r.lost for r in collector.frames] == [False, True]
    # unknown/detail events fall through untouched
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        collector.on_event(PhaseSpan(1.0, "u1", 1, "rtt", 10.0))
