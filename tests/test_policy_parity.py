"""Bit-identity pins for the policy refactor.

``tests/golden/lo_policy_trace.jsonl`` was recorded before
``SelectionMachine`` learned about :class:`repro.policy.SelectionPolicy`
objects, with the LO ranking as a plain sort function.
Replaying the identical scenario through the policy subsystem must
reproduce that trace byte-for-byte — the only new output allowed is the
``policy_decision`` detail event, which we filter out before comparing
(and separately assert is present).

A second family of tests pins policy objects against the ranking
functions they replaced: choosing ``"lo"`` / ``"go"`` must produce the
same trace as choosing the two reference sorts of
:mod:`tests.sort_reference` — the paper's §IV-D definitions, ``LO_j`` /
``GO_j`` ascending with the node id as tie-break — registered under a
test name.
"""

import json
from pathlib import Path

from repro.api import ScenarioBuilder
from repro.core.config import SystemConfig
from repro.geo.point import GeoPoint
from repro.nodes.hardware import profile_by_name
from tests.sort_reference import (
    SortReference,
    register_for_test,
    sort_by_global_overhead,
    sort_by_local_overhead,
)

GOLDEN = Path(__file__).parent / "golden" / "lo_policy_trace.jsonl"

NODES = [
    ("V1", GeoPoint(44.980, -93.260)),
    ("V2", GeoPoint(44.950, -93.200)),
    ("V3", GeoPoint(44.935, -93.155)),
    ("V4", GeoPoint(44.915, -93.130)),
    ("V5", GeoPoint(44.900, -93.100)),
]
CLIENTS = [
    ("u1", GeoPoint(44.970, -93.250)),
    ("u2", GeoPoint(44.940, -93.180)),
    ("u3", GeoPoint(44.910, -93.120)),
]


def _run_scenario(config):
    """The exact scenario the golden trace was recorded from."""
    builder = ScenarioBuilder(config).observe(trace=True)
    for node_id, point in NODES:
        builder = builder.node(node_id, profile_by_name(node_id), point=point)
    for user_id, point in CLIENTS:
        builder = builder.client(user_id, point=point)
    scenario = builder.build_scenario()
    system, tracer = scenario.system, scenario.tracer

    system.run_for(6_000.0)
    victim = system.clients["u1"].current_edge
    assert victim is not None
    system.fail_node(victim)
    system.run_for(6_000.0)
    system.restart_node(victim)
    system.run_for(6_000.0)
    tracer.close()
    return [json.dumps(e.to_dict(), sort_keys=True) for e in tracer.events()]


def test_lo_policy_replays_pre_refactor_golden_trace():
    config = SystemConfig(
        seed=1234, top_n=3, probing_period_ms=2_000.0, policy_spec="lo"
    )
    lines = _run_scenario(config)

    decisions = [l for l in lines if '"type": "policy_decision"' in l]
    assert decisions, "refactored machine should emit policy_decision events"
    replay = [l for l in lines if '"type": "policy_decision"' not in l]

    golden = GOLDEN.read_text().splitlines()
    assert replay == golden


def _trace_with(policy_spec):
    config = SystemConfig(
        seed=77, top_n=3, probing_period_ms=2_000.0, policy_spec=policy_spec
    )
    lines = _run_scenario(config)
    return [l for l in lines if '"type": "policy_decision"' not in l]


def test_lo_policy_object_matches_legacy_callable(monkeypatch):
    register_for_test(
        monkeypatch, "test-sort-lo", lambda: SortReference(sort_by_local_overhead)
    )
    assert _trace_with("lo") == _trace_with("test-sort-lo")


def test_go_policy_object_matches_legacy_callable(monkeypatch):
    register_for_test(
        monkeypatch, "test-sort-go", lambda: SortReference(sort_by_global_overhead)
    )
    assert _trace_with("go") == _trace_with("test-sort-go")


def test_policy_decisions_cover_every_probe_round():
    """Every client that completed a probe round got a scored decision."""
    config = SystemConfig(
        seed=1234, top_n=3, probing_period_ms=2_000.0, policy_spec="lo"
    )
    lines = _run_scenario(config)
    decisions = [
        json.loads(l) for l in lines if '"type": "policy_decision"' in l
    ]
    users = {d["user_id"] for d in decisions}
    assert users == {"u1", "u2", "u3"}
    for d in decisions:
        assert d["policy"] == "lo"
        assert len(d["ranked"]) == len(d["scores"]) > 0
        # LO scores are the local overheads, sorted ascending.
        assert list(d["scores"]) == sorted(d["scores"])
