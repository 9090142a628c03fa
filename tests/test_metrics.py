"""Unit tests for stats, time series, the collector and report rendering."""

import gc
from array import array
from typing import List, Optional

import pytest
from hypothesis import given, strategies as st

from repro import EndpointSpec, ScenarioBuilder, SystemConfig
from repro.geo.region import MSP_CENTER
from repro.metrics.collector import FrameRecord, MetricsCollector
from repro.nodes.hardware import VOLUNTEER_PROFILES
from repro.metrics.report import cdf_quantiles, format_table, render
from repro.obs.events import (
    CoveredFailover,
    FrameDone,
    JoinAccept,
    JoinReject,
    PopulationChanged,
    ProbeSent,
    Switch,
    UncoveredFailure,
)
from repro.obs.events import TestWorkloadInvoked as WorkloadInvoked  # noqa: N813

# ("Test"-prefixed names confuse pytest collection, hence the alias.)
from repro.metrics.stats import (
    cdf_points,
    mean,
    percentile,
    stddev,
    summarize,
)
from repro.metrics.timeseries import TimeSeries, bin_series


# ----------------------------------------------------------------------
# stats
# ----------------------------------------------------------------------
def test_mean_and_stddev():
    assert mean([1.0, 2.0, 3.0]) == 2.0
    assert stddev([2.0, 2.0, 2.0]) == 0.0
    assert stddev([0.0, 10.0]) == 5.0


def test_single_value_stddev_zero():
    assert stddev([7.0]) == 0.0


def test_empty_inputs_raise():
    for fn in (mean, stddev, cdf_points, summarize):
        with pytest.raises(ValueError):
            fn([])
    with pytest.raises(ValueError):
        percentile([], 50)


def test_percentile():
    values = list(range(101))
    assert percentile(values, 50) == 50.0
    assert percentile(values, 0) == 0.0
    assert percentile(values, 100) == 100.0
    with pytest.raises(ValueError):
        percentile(values, 101)


def test_cdf_points_shape():
    points = cdf_points([30.0, 10.0, 20.0])
    assert points == [(10.0, 1 / 3), (20.0, 2 / 3), (30.0, 1.0)]


def test_summarize_fields():
    summary = summarize([10.0, 20.0, 30.0, 40.0])
    assert summary.count == 4
    assert summary.mean_ms == 25.0
    assert summary.min_ms == 10.0
    assert summary.max_ms == 40.0
    assert "mean=25.0" in str(summary)


@given(st.lists(st.floats(min_value=0, max_value=1e4), min_size=1, max_size=200))
def test_property_cdf_monotone_and_complete(values):
    points = cdf_points(values)
    fractions = [f for _, f in points]
    assert fractions == sorted(fractions)
    assert fractions[-1] == pytest.approx(1.0)
    xs = [v for v, _ in points]
    assert xs == sorted(xs)


@given(st.lists(st.floats(min_value=0, max_value=1e4), min_size=2, max_size=200))
def test_property_mean_between_min_max(values):
    assert min(values) - 1e-9 <= mean(values) <= max(values) + 1e-9


# ----------------------------------------------------------------------
# time series
# ----------------------------------------------------------------------
def test_timeseries_append():
    series = TimeSeries(name="t")
    series.append(0.0, 1.0)
    series.append(10.0, 2.0)
    series.append(20.0, 3.0)
    assert len(series) == 3
    assert series.times_ms == [0.0, 10.0, 20.0] and series.values == [1.0, 2.0, 3.0]


def test_timeseries_rejects_out_of_order():
    series = TimeSeries()
    series.append(10.0, 1.0)
    with pytest.raises(ValueError):
        series.append(5.0, 2.0)


def test_bin_series_means():
    times = [0.0, 1.0, 5.0, 6.0]
    values = [10.0, 20.0, 30.0, 50.0]
    binned = bin_series(times, values, bin_ms=5.0)
    assert binned == [(0.0, 15.0), (5.0, 40.0)]


def test_bin_series_respects_bounds():
    binned = bin_series([0.0, 10.0, 20.0], [1.0, 2.0, 3.0], 5.0, start_ms=5.0, end_ms=15.0)
    assert binned == [(10.0, 2.0)]


def test_bin_series_validation():
    with pytest.raises(ValueError):
        bin_series([0.0], [1.0], 0.0)
    with pytest.raises(ValueError):
        bin_series([0.0], [1.0, 2.0], 5.0)


def test_bin_series_skips_empty_bins():
    binned = bin_series([0.0, 100.0], [1.0, 2.0], 10.0)
    assert binned == [(0.0, 1.0), (100.0, 2.0)]


# ----------------------------------------------------------------------
# collector (a pure reducer over trace events since the obs redesign)
# ----------------------------------------------------------------------
def frame_done(
    user_id: str, node_id: str, created_ms: float, latency_ms: Optional[float]
) -> FrameDone:
    done_ms = created_ms + (latency_ms or 0.0)
    return FrameDone(done_ms, user_id, node_id, 0, created_ms, latency_ms)


def test_collector_frame_reductions():
    collector = MetricsCollector()
    collector.on_event(frame_done("u1", "V1", 0.0, 40.0))
    collector.on_event(frame_done("u1", "V1", 100.0, 60.0))
    collector.on_event(frame_done("u2", "V2", 100.0, 100.0))
    collector.on_event(frame_done("u2", "V2", 200.0, None))  # lost
    assert collector.completed_latencies() == [40.0, 60.0, 100.0]
    assert collector.completed_latencies(user_id="u1") == [40.0, 60.0]
    assert collector.completed_latencies(start_ms=50.0, end_ms=150.0) == [60.0, 100.0]
    assert [(r.user_id, r.lost) for r in collector.frames if r.lost] == [("u2", True)]


def test_collector_per_user_means():
    collector = MetricsCollector()
    collector.on_event(frame_done("u1", "V1", 0.0, 40.0))
    collector.on_event(frame_done("u1", "V1", 1.0, 60.0))
    collector.on_event(frame_done("u2", "V2", 2.0, 10.0))
    means = collector.per_user_mean_latency()
    assert means == {"u1": 50.0, "u2": 10.0}


def test_stored_frames_leave_the_gc_and_read_back_as_records():
    """Frames are kept as four columns, none an object per frame;
    ``frames`` reads them back as the ``FrameRecord`` s the collector
    used to append, field by field, lost frames with ``latency_ms=None``."""
    builder = ScenarioBuilder(SystemConfig(seed=3)).default_node_spec(EndpointSpec(MSP_CENTER))
    for i in range(6):
        builder.node(f"n{i}", VOLUNTEER_PROFILES[i % len(VOLUNTEER_PROFILES)],
                     point=MSP_CENTER.offset_km(i - 3.0, 1.0))
    for i in range(3):
        builder.client(f"u{i}", point=MSP_CENTER.offset_km(0.5 * i, -1.0))
    system = builder.build()
    seen: List[FrameRecord] = []  # what the collector appended before
    system.trace.subscribe(
        lambda event: seen.append(
            FrameRecord(event.user_id, event.node_id, event.created_ms, event.latency_ms)
        ) if event.type == "frame_done" else None
    )
    frames = system.metrics.frames  # a live view, taken before the run
    system.run_for(3_000.0)
    gc.collect()
    assert len(frames) == len(seen) > 100
    metrics = system.metrics
    assert all(type(column) is array for column in (metrics._frame_created, metrics._frame_latency))
    assert all(type(column) is list and not any(gc.is_tracked(i) for i in column)
               for column in (metrics._frame_users, metrics._frame_edges))
    n = len(seen)
    for window in (slice(None), slice(0, 1), slice(5, 40), slice(n - 7, None),
                   slice(-3, None), slice(10, 5), slice(None, None, 3)):
        assert frames[window] == seen[window]
    assert [frames[i] for i in (0, n // 2, -1)] == [seen[0], seen[n // 2], seen[-1]]
    assert list(frames) == seen and type(frames[0]) is FrameRecord
    with pytest.raises(IndexError):
        frames[n]
    with pytest.raises(TypeError):
        frames[0] = seen[0]  # type: ignore[index]


def test_collector_counters():
    collector = MetricsCollector()
    for _ in range(3):
        collector.on_event(ProbeSent(0.0, "u1", "V1"))
    collector.on_event(ProbeSent(0.0, "u2", "V1"))
    collector.on_event(WorkloadInvoked(0.0, "V1"))
    collector.on_event(JoinAccept(1.0, "u1", "V1"))
    collector.on_event(JoinReject(2.0, "u1", "V2"))
    collector.on_event(UncoveredFailure(100.0, "u1"))
    collector.on_event(CoveredFailover(200.0, "u2", "V2"))
    collector.on_event(Switch(3.0, "u1", from_node="V1", to_node="V2"))
    assert collector.total_probes() == 4
    assert collector.total_test_invocations() == 1
    assert collector.join_accepts["u1"] == 1
    assert collector.join_rejects["u1"] == 1
    assert collector.total_failures() == 1
    assert collector.failure_events == [("u1", 100.0)]
    assert collector.failover_events == [("u2", 200.0)]
    assert collector.total_switches() == 1


def test_collector_population_series():
    collector = MetricsCollector()
    collector.on_event(PopulationChanged(0.0, 3))
    collector.on_event(PopulationChanged(10.0, 4))
    assert collector.alive_nodes.values == [3.0, 4.0]


def test_collector_has_no_legacy_mutators():
    # The one-release record_* deprecation shims are gone for good.
    for name in (
        "record_frame",
        "record_probe",
        "record_discovery",
        "record_test_invocation",
        "record_join",
        "record_failure",
        "record_covered_failover",
        "record_switch",
        "record_alive_nodes",
    ):
        assert not hasattr(MetricsCollector, name)


# ----------------------------------------------------------------------
# report rendering
# ----------------------------------------------------------------------
def test_format_table_aligns_and_titles():
    text = format_table(["name", "ms"], [["V1", 24.0], ["D6", 30.0]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "V1" in text and "24.0" in text
    # all data rows share the header's column separator positions
    assert lines[1].index("|") == lines[3].index("|")


def test_format_table_rejects_ragged_rows():
    with pytest.raises(ValueError):
        format_table(["a", "b"], [["only-one"]])


def test_render_is_format_table_of_a_table_triple():
    table = ("T", ["name", "ms"], [["V1", 24.0], ["D6", 30.0]])
    assert render(table) == format_table(table[1], table[2], title="T")


def test_cdf_quantiles_picks_quantiles():
    points = cdf_points(list(range(1, 101)))
    assert cdf_quantiles(points) == [10, 25, 50, 75, 90, 99]
    assert cdf_quantiles(points, fractions=(0.5,)) == [50]


def test_cdf_quantiles_empty_raises():
    with pytest.raises(ValueError):
        cdf_quantiles([])
