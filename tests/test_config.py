"""Unit tests for SystemConfig validation and helpers."""

import pytest

from repro.core.config import SystemConfig


def test_defaults_are_paper_shaped():
    config = SystemConfig()
    assert config.top_n == 3
    assert config.backup_count == 2
    # The paper's default ranking is GO (average-optimizing).
    assert config.policy_spec == "go"


def test_with_copies():
    base = SystemConfig()
    varied = base.with_(top_n=5)
    assert varied.top_n == 5
    assert base.top_n == 3
    assert varied.probing_period_ms == base.probing_period_ms


def test_with_arbitrary_changes_validated():
    with pytest.raises(ValueError):
        SystemConfig().with_(top_n=0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"top_n": 0},
        {"probing_period_ms": 0.0},
        {"probing_jitter_ms": -1.0},
        {"discovery_radius_km": 0.0},
        {"wide_radius_km": 10.0, "discovery_radius_km": 50.0},
        {"heartbeat_timeout_ms": 500.0, "heartbeat_period_ms": 1_000.0},
        {"failure_detection_ms": -1.0},
        {"switch_penalty_ms": -1.0},
        {"switch_penalty_fraction": 1.0},
        {"min_dwell_ms": -1.0},
        {"rtt_probe_samples": 0},
        {"qos_latency_ms": 0.0},
        {"perf_monitor_threshold": 0.0},
        {"max_discovery_retries": -1},
        {"cohort_tick_ms": 0.0},
        {"control_plane_shards": 0},
        {"control_plane_replicas": 0},
        {"attachment_lease_ms": 0.0},
        {"cohort_tick_ms": -250.0},
        {"heartbeat_timeout_ms": 1_000.0, "heartbeat_period_ms": 1_000.0},
    ],
)
def test_invalid_configs_rejected(kwargs):
    with pytest.raises(ValueError):
        SystemConfig(**kwargs)


def test_metro_knobs_are_keyword_only():
    from dataclasses import fields

    kw_only = {f.name for f in fields(SystemConfig) if f.kw_only}
    assert {
        "cohort_batching", "cohort_tick_ms",
        "control_plane_shards", "control_plane_replicas",
    } <= kw_only


def test_metro_knob_defaults_compose():
    """The config's cohort tick and the spec's shard shape compose: the
    boundary epoch must be a whole number of ticks, checked at build."""
    from repro.metro import MetroSimulation, MetroSpec, ShardSpec

    config = SystemConfig(cohort_tick_ms=125.0)
    shard = ShardSpec(count=4, workers=2, boundary_epoch_ms=500.0)
    sim = MetroSimulation(MetroSpec(nodes=10, users=10, shard=shard), config)
    assert sim.spec.shard.boundary_epoch_ms / sim.config.cohort_tick_ms == 4.0
    with pytest.raises(ValueError, match="whole multiple"):
        MetroSimulation(
            MetroSpec(nodes=10, users=10, shard=ShardSpec(boundary_epoch_ms=300.0)),
            config,
        )


def test_qos_none_is_allowed():
    assert SystemConfig(qos_latency_ms=None).qos_latency_ms is None


def test_backup_count_is_topn_minus_one():
    assert SystemConfig(top_n=1).backup_count == 0
    assert SystemConfig(top_n=5).backup_count == 4


def test_config_is_frozen():
    with pytest.raises(AttributeError):
        SystemConfig().top_n = 7  # type: ignore[misc]
