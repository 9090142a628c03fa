"""Integration tests: full churn experiments behave as in §V-D2."""

import pytest

from repro.core.config import SystemConfig
from repro.experiments.churn_experiment import (
    make_churn_trace,
    run_churn_once,
    run_churn_trace,
)


@pytest.fixture(scope="module")
def trace():
    return make_churn_trace(SystemConfig(seed=5))


def test_trace_matches_paper_configuration(trace):
    assert len(trace) == 18  # "a total of 18 edge nodes"
    assert trace.horizon_ms == 180_000.0
    assert trace.episodes[0].join_ms <= 5_000.0


def test_trace_population_floor(trace):
    for ms in range(10_000, 170_000, 2_000):
        assert trace.alive_count_at(float(ms)) >= 2


@pytest.fixture(scope="module")
def churn_run(trace):
    return run_churn_once(SystemConfig(seed=5).with_(top_n=3), trace=trace)


def test_users_keep_completing_frames_through_churn(churn_run):
    """No extended outage: frames complete in every 10-s slice after the
    initial node arrivals."""
    for start in range(10_000, 180_000, 10_000):
        window = churn_run.metrics.completed_latencies(
            float(start), float(start + 10_000)
        )
        assert window, f"service gap in [{start}, {start + 10_000})"


def test_no_uncovered_failures_at_topn_3(churn_run):
    assert churn_run.metrics.total_failures() == 0


def test_failovers_were_actually_exercised(churn_run):
    """The trace kills nodes users sat on: backups must have absorbed a
    meaningful number of failovers, or the test proves nothing."""
    covered = sum(churn_run.metrics.covered_failovers.values())
    assert covered >= 5


def test_latency_recovers_after_population_growth(trace):
    """Fig. 8's signature: when nodes join (upward steps), the average
    latency within the following seconds is no worse than before."""
    result = run_churn_trace(SystemConfig(seed=5))
    assert result.total_nodes == 18
    assert len(result.latency_trace) > 20
    # steady-state average (after warmup) is application-usable
    steady = [v for t, v in result.latency_trace if t >= 30_000.0]
    assert sum(steady) / len(steady) < 250.0


def test_all_users_served_during_measurement_window(churn_run):
    per_user = churn_run.metrics.per_user_mean_latency(60_000.0, 120_000.0)
    assert len(per_user) == 10


def test_topn1_suffers_more_failures_than_topn3(trace):
    one = run_churn_once(SystemConfig(seed=5).with_(top_n=1), trace=trace)
    three = run_churn_once(SystemConfig(seed=5).with_(top_n=3), trace=trace)
    assert one.metrics.total_failures() > three.metrics.total_failures()


def test_same_trace_same_seed_reproduces(trace):
    a = run_churn_once(SystemConfig(seed=5).with_(top_n=2), trace=trace)
    b = run_churn_once(SystemConfig(seed=5).with_(top_n=2), trace=trace)
    assert a.metrics.total_probes() == b.metrics.total_probes()
    assert a.metrics.total_failures() == b.metrics.total_failures()
    assert len(a.metrics.frames) == len(b.metrics.frames)
