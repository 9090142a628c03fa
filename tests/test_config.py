"""Unit tests for SystemConfig validation and helpers."""

import pytest

from repro.core.config import SystemConfig


def test_defaults_are_paper_shaped():
    config = SystemConfig()
    assert config.top_n == 3
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
        {"min_dwell_ms": -1.0},
        {"qos_latency_ms": 0.0},
        {"control_plane_shards": 0},
        {"control_plane_replicas": 0},
        {"attachment_lease_ms": 0.0},
        {"heartbeat_timeout_ms": 1_000.0, "heartbeat_period_ms": 1_000.0},
        {"wide_radius_km": 0.0},
        {"probing_period_ms": float("nan")},
        {"failure_detection_ms": float("nan")},
        {"min_dwell_ms": float("nan")},
        {"heartbeat_timeout_ms": float("nan")},
        {"discovery_radius_km": float("nan")},
        {"probing_period_ms": float("inf")},
        {"heartbeat_timeout_ms": float("inf")},
        {"qos_latency_ms": float("nan")},
        {"attachment_lease_ms": float("inf")},
        {"heartbeat_period_ms": 0.0},
        {"heartbeat_period_ms": -5.0},
    ],
)
def test_invalid_configs_rejected(kwargs):
    with pytest.raises(ValueError):
        SystemConfig(**kwargs)


def test_metro_knobs_are_keyword_only():
    from dataclasses import fields

    kw_only = {f.name for f in fields(SystemConfig) if f.kw_only}
    assert {"control_plane_shards", "control_plane_replicas"} <= kw_only


def test_qos_none_is_allowed():
    assert SystemConfig(qos_latency_ms=None).qos_latency_ms is None
    assert SystemConfig(attachment_lease_ms=None).attachment_lease_ms is None


def test_config_is_frozen():
    with pytest.raises(AttributeError):
        SystemConfig().top_n = 7  # type: ignore[misc]
