"""Tests for the reputation-weighted global selection extension."""

import pytest

from repro.core.config import SystemConfig
from repro.core.manager import CentralManager
from repro.core.system import EdgeSystem
from repro.geo.point import GeoPoint
from repro.messages import DiscoveryQuery
from repro.net.topology import EndpointSpec
from repro.nodes.hardware import profile_by_name
from repro.policy.global_policy import GlobalSelectionPolicy
from repro.policy.reputation import (
    ReputationTracker,
    reputation_sort_key,
)


# ----------------------------------------------------------------------
# Tracker semantics
# ----------------------------------------------------------------------
def test_unknown_identity_scores_neutral_prior():
    tracker = ReputationTracker()
    assert tracker.reliability("ghost", 0.0) == pytest.approx(0.5)


def test_uptime_earns_trust():
    tracker = ReputationTracker(target_session_ms=10_000.0)
    tracker.record_online("steady", 0.0)
    assert tracker.reliability("steady", 100_000.0) > 0.8


def test_departures_cost_trust():
    tracker = ReputationTracker(target_session_ms=10_000.0)
    for start in range(0, 50_000, 10_000):
        tracker.record_online("flaky", float(start))
        tracker.record_departure("flaky", float(start) + 500.0)  # 0.5 s sessions
    assert tracker.reliability("flaky", 50_000.0) < 0.25


def test_reputation_survives_rejoin():
    tracker = ReputationTracker(target_session_ms=10_000.0)
    tracker.record_online("x", 0.0)
    tracker.record_departure("x", 100.0)
    before = tracker.reliability("x", 200.0)
    tracker.record_online("x", 200.0)  # same identity returns
    assert tracker.reliability("x", 300.0) == pytest.approx(before, abs=0.01)


def test_departure_without_session_is_ignored():
    tracker = ReputationTracker()
    tracker.record_departure("never-seen", 100.0)
    assert tracker.reliability("never-seen", 200.0) == pytest.approx(0.5)


def test_double_online_does_not_double_count_sessions():
    tracker = ReputationTracker()
    tracker.record_online("x", 0.0)
    tracker.record_online("x", 10.0)
    assert tracker._records["x"].sessions == 1


def test_tracker_validation():
    with pytest.raises(ValueError):
        ReputationTracker(target_session_ms=0.0)


def test_known_identities():
    tracker = ReputationTracker()
    tracker.record_online("b", 0.0)
    tracker.record_online("a", 0.0)
    assert tracker.known_identities() == ("a", "b")


# ----------------------------------------------------------------------
# Manager wiring + sort key
# ----------------------------------------------------------------------
def build_system_with_reputation(seed=71):
    config = SystemConfig(seed=seed, top_n=2)
    system = EdgeSystem(config)
    tracker = ReputationTracker(target_session_ms=5_000.0)
    policy = GlobalSelectionPolicy(
        sort_key_factory=reputation_sort_key(tracker, lambda: system.sim.now)
    )
    system.manager = CentralManager(system, policy, reputation=tracker)
    return system, tracker


def test_manager_feeds_tracker_on_heartbeat_and_departure():
    system, tracker = build_system_with_reputation()
    system.add_node("v", profile_by_name("V1"), EndpointSpec(GeoPoint(44.98, -93.26)))
    system.run_for(2_000.0)
    assert "v" in tracker.known_identities()
    assert tracker._records["v"].online
    system.fail_node("v")
    system.run_for(system.config.heartbeat_timeout_ms + 2_000.0)
    system.manager.alive_statuses()  # pruning records the departure
    assert not tracker._records["v"].online
    assert tracker._records["v"].departures == 1


def test_flaky_node_loses_candidate_rank():
    system, tracker = build_system_with_reputation()
    # Two identical nodes; 'flaky' has a record of repeated short sessions.
    system.add_node("flaky", profile_by_name("V1"), EndpointSpec(GeoPoint(44.96, -93.24)))
    system.add_node("proven", profile_by_name("V1"), EndpointSpec(GeoPoint(44.96, -93.24)))
    for start in range(0, 40_000, 10_000):
        tracker.record_online("flaky", float(start))
        tracker.record_departure("flaky", float(start) + 300.0)
    tracker.record_online("proven", 0.0)
    system.run_for(2_000.0)  # heartbeats land (re-marking both online)
    query = DiscoveryQuery("u1", 44.97, -93.25, top_n=2)
    result = system.manager.discover(query)
    assert list(result.node_ids)[0] == "proven"


def test_without_history_order_falls_back_to_availability():
    system, tracker = build_system_with_reputation()
    system.add_node("big", profile_by_name("V1"), EndpointSpec(GeoPoint(44.96, -93.24)))
    system.add_node("small", profile_by_name("V5"), EndpointSpec(GeoPoint(44.96, -93.24)))
    system.run_for(2_000.0)
    query = DiscoveryQuery("u1", 44.97, -93.25, top_n=2)
    result = system.manager.discover(query)
    assert list(result.node_ids)[0] == "big"
