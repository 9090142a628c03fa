"""Unit tests for host-workload interference."""

import pytest

from repro.nodes.host_workload import HostWorkload, HostWorkloadSchedule


def test_episode_slowdown_factor():
    episode = HostWorkload(0.0, 1000.0, cpu_fraction=0.5)
    assert episode.slowdown_factor == pytest.approx(2.0)


def test_episode_active_interval_is_half_open():
    episode = HostWorkload(100.0, 200.0, 0.3)
    assert not episode.active_at(99.9)
    assert episode.active_at(100.0)
    assert episode.active_at(199.9)
    assert not episode.active_at(200.0)


def test_episode_validation():
    with pytest.raises(ValueError):
        HostWorkload(100.0, 100.0, 0.5)  # zero duration
    with pytest.raises(ValueError):
        HostWorkload(0.0, 1.0, 0.99)  # too hungry


def test_empty_schedule_is_always_idle():
    schedule = HostWorkloadSchedule.none()
    assert schedule.slowdown_at(12345.0) == 1.0
    assert len(schedule) == 0
    assert schedule.change_points() == []


def test_schedule_returns_active_episode_factor():
    schedule = HostWorkloadSchedule(
        [HostWorkload(100.0, 200.0, 0.5), HostWorkload(300.0, 400.0, 0.2)]
    )
    assert schedule.slowdown_at(50.0) == 1.0
    assert schedule.slowdown_at(150.0) == pytest.approx(2.0)
    assert schedule.slowdown_at(250.0) == 1.0
    assert schedule.slowdown_at(350.0) == pytest.approx(1.25)


def test_schedule_rejects_overlap():
    with pytest.raises(ValueError, match="overlap"):
        HostWorkloadSchedule(
            [HostWorkload(0.0, 100.0, 0.5), HostWorkload(50.0, 150.0, 0.5)]
        )


def test_schedule_sorts_episodes():
    schedule = HostWorkloadSchedule(
        [HostWorkload(300.0, 400.0, 0.2), HostWorkload(100.0, 200.0, 0.5)]
    )
    assert schedule.episodes[0].start_ms == 100.0


def test_change_points_cover_starts_and_ends():
    schedule = HostWorkloadSchedule([HostWorkload(100.0, 200.0, 0.5)])
    assert schedule.change_points() == [100.0, 200.0]
