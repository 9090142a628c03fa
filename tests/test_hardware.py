"""Unit tests for the hardware catalog."""

import pytest

from repro.nodes.hardware import (
    CLOUD_NODE,
    DEDICATED_PROFILES,
    EMULATION_PROFILES,
    HardwareProfile,
    VOLUNTEER_PROFILES,
    profile_by_name,
)


def test_table2_volunteer_frame_times():
    """The exact Table II processing times."""
    times = {p.name: p.base_frame_ms for p in VOLUNTEER_PROFILES}
    assert times == {"V1": 24.0, "V2": 32.0, "V3": 31.0, "V4": 45.0, "V5": 49.0}


def test_table2_volunteer_core_counts():
    cores = {p.name: p.cores for p in VOLUNTEER_PROFILES}
    assert cores == {"V1": 8, "V2": 6, "V3": 6, "V4": 4, "V5": 2}


def test_table2_dedicated_nodes():
    assert [p.name for p in DEDICATED_PROFILES] == ["D6", "D7", "D8", "D9"]
    assert all(p.base_frame_ms == 30.0 for p in DEDICATED_PROFILES)
    assert all(p.cores == 4 for p in DEDICATED_PROFILES)


def test_cloud_node_matches_table2():
    assert CLOUD_NODE.base_frame_ms == 30.0


def test_capacity_fps():
    v1 = profile_by_name("V1")
    assert v1.capacity_fps == pytest.approx(v1.parallelism * 1000.0 / 24.0)


def test_faster_hardware_has_higher_capacity():
    assert profile_by_name("V1").capacity_fps > profile_by_name("V5").capacity_fps


def test_lookup_by_name():
    assert profile_by_name("t2.xlarge") is EMULATION_PROFILES["t2.xlarge"]


def test_lookup_unknown_raises_with_known_names():
    with pytest.raises(KeyError, match="V1"):
        profile_by_name("not-a-machine")


def test_profile_validation():
    with pytest.raises(ValueError):
        HardwareProfile("bad", "x", 0, 30.0)
    with pytest.raises(ValueError):
        HardwareProfile("bad", "x", 4, 0.0)
    with pytest.raises(ValueError):
        HardwareProfile("bad", "x", 4, 30.0, parallelism=0)


def test_profiles_are_frozen():
    with pytest.raises(AttributeError):
        profile_by_name("V1").base_frame_ms = 1.0  # type: ignore[misc]
