"""Tests for the fault-schedule search engine (``repro.faults.search``).

The expensive end of the pyramid — hunt, shrink, replay — is exercised
once, on the weakened-detection control-plane configuration that the CI
smoke job also uses: a deterministic find that shrinks to a tiny plan
and replays bit-identically.
"""

import json
import random

import pytest

from repro.faults import FaultPlan, NodeCrash
from repro.faults.search import (
    FaultSpace,
    HuntConfig,
    ReproArtifact,
    hunt,
    replay_artifact,
    run_plan,
    sample_plan,
    shrink,
)
from repro.obs.tracer import Tracer

#: The CI smoke configuration: a 4 s failure-detection window cannot
#: meet the nominal 250 ms promotion budget, so a shard-targeted outage
#: is guaranteed to violate — the hunt only has to sample one.
WEAKENED = HuntConfig(
    scenario="controlplane",
    attempts=10,
    config_overrides=(("failure_detection_ms", 4_000.0),),
)


# ----------------------------------------------------------------------
# The sampling space
# ----------------------------------------------------------------------
def test_fault_space_validates_inputs():
    with pytest.raises(ValueError):
        FaultSpace(edge_ids=())
    with pytest.raises(ValueError):
        FaultSpace(max_rules=0)
    with pytest.raises(ValueError):
        FaultSpace(active_fraction=1.5)
    with pytest.raises(ValueError):
        FaultSpace(families=("message", "meteor"))


def test_sample_plan_is_a_pure_function_of_the_rng():
    space = FaultSpace(shard_targets=(0, 1))
    plans = [sample_plan(space, random.Random("s:1")) for _ in range(2)]
    assert plans[0] == plans[1]
    assert sample_plan(space, random.Random("s:2")) != plans[0]


def test_sampled_plans_respect_the_settle_tail():
    """Every sampled schedule leaves the canonical fault-free tail: all
    windows closed and all crashed nodes restarted by
    ``active_fraction`` of the horizon."""
    space = FaultSpace(shard_targets=(0, 1))
    deadline = space.active_fraction * space.horizon_ms
    for seed in range(30):
        plan = sample_plan(space, random.Random(f"tail:{seed}"))
        assert 1 <= len(plan) <= space.max_rules
        for rule in (*plan.message_faults, *plan.partitions, *plan.outages,
                     *plan.gray_nodes):
            assert rule.window.end_ms <= deadline + 1e-9
        for crash in plan.crashes:
            assert crash.restart_at_ms is not None
            assert crash.restart_at_ms <= deadline + 1e-9


def test_sampled_outages_cover_shard_targets():
    space = FaultSpace(families=("outage",), shard_targets=(0, 1), max_rules=3)
    seen = set()
    for seed in range(40):
        plan = sample_plan(space, random.Random(f"shards:{seed}"))
        seen.update(o.shard for o in plan.outages)
    assert {0, 1, None} <= seen


def test_hunt_config_rejects_unknown_scenario():
    with pytest.raises(ValueError):
        HuntConfig(scenario="hybrid")


def test_controlplane_space_targets_populated_shards():
    from repro.faults.scenarios import CANONICAL, controlplane

    space = HuntConfig(scenario="controlplane", shards=2).space()
    # Exactly the shards that own at least one edge node: a sampled
    # shard-targeted outage is guaranteed to hit a populated shard.
    assert space.shard_targets == controlplane(2).shard_targets
    assert space.edge_ids == controlplane(2).edge_ids
    assert space.shard_targets
    assert all(0 <= s < 2 for s in space.shard_targets)
    canonical = HuntConfig(scenario="canonical").space()
    assert canonical.shard_targets == ()
    assert canonical.edge_ids == CANONICAL.edge_ids == FaultSpace().edge_ids


# ----------------------------------------------------------------------
# Deterministic replay
# ----------------------------------------------------------------------
def test_run_plan_is_bit_identical_for_same_inputs():
    plan = FaultPlan(
        crashes=(NodeCrash("c", "edge-a", at_ms=4_000.0, restart_at_ms=9_000.0),)
    )
    config = HuntConfig(scenario="canonical")
    _, first = run_plan(plan, 5, config)
    _, second = run_plan(plan, 5, config)
    assert [e.to_dict() for e in first] == [e.to_dict() for e in second]


# ----------------------------------------------------------------------
# Hunt + shrink + artifact, end to end
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def weakened_find():
    tracer = Tracer()
    result = hunt(WEAKENED, hunt_seed=0, tracer=tracer)
    return result, list(tracer.events())


def test_hunt_finds_and_shrinks_weakened_detection(weakened_find):
    result, _ = weakened_find
    assert result.found
    assert result.artifact is not None
    # The acceptance bar: a minimal reproducer of at most 3 rules.
    assert result.shrunk_rules <= 3
    assert result.shrunk_rules <= result.original_rules
    assert result.artifact.violation.invariant in (
        "promotion_budget",
        "failover_stall",
        "attachment_consistency",
    )
    assert any("shrunk" in line for line in result.summary_lines())


def test_hunt_emits_progress_and_shrink_events(weakened_find):
    result, events = weakened_find
    attempts = [e for e in events if e.type == "hunt_attempt"]
    steps = [e for e in events if e.type == "shrink_step"]
    assert len(attempts) == result.attempts
    assert attempts[-1].violations > 0
    assert len(steps) == result.shrink_runs
    assert {s.action for s in steps} <= {
        "drop_rules", "narrow_window", "reduce_targets"
    }
    assert any(s.kept for s in steps)


def test_hunt_is_deterministic(weakened_find):
    result, _ = weakened_find
    again = hunt(WEAKENED, hunt_seed=0)
    assert again.found
    assert again.attempts == result.attempts
    assert again.shrink_runs == result.shrink_runs
    assert again.artifact.plan == result.artifact.plan
    assert again.artifact.violation == result.artifact.violation


def test_artifact_round_trips_and_replays_bit_identically(
    weakened_find, tmp_path
):
    result, _ = weakened_find
    path = tmp_path / "repro.json"
    result.artifact.save(str(path))
    loaded = ReproArtifact.load(str(path))
    assert loaded == result.artifact
    # the artifact file is plain, versioned JSON
    data = json.loads(path.read_text())
    assert data["version"] == 1
    assert data["scenario"] == "controlplane"

    report, events, reproduced = replay_artifact(loaded)
    assert reproduced
    assert events
    assert any(
        v == loaded.violation for v in report.violations
    )


def test_shrunk_plan_is_one_minimal(weakened_find):
    """Removing any single rule from the reproducer loses the bug."""
    result, _ = weakened_find
    artifact = result.artifact
    config = artifact.hunt_config()
    signature = artifact.violation.invariant
    for rule in artifact.plan.all_rules():
        from repro.faults.search import _reproduces, _without_rule

        reduced = _without_rule(artifact.plan, rule.rule_id)
        if len(reduced) == 0:
            continue  # a 1-rule reproducer has nothing left to drop
        report, _ = run_plan(reduced, artifact.seed, config)
        assert not _reproduces(report.violations, signature)


def test_hunt_with_zero_attempts_reports_not_found():
    result = hunt(HuntConfig(scenario="canonical", attempts=0), hunt_seed=0)
    assert not result.found
    assert result.attempts == 0
    assert result.artifact is None
    assert "found=False" in result.summary_lines()[0]


def test_shrink_respects_its_budget():
    plan = FaultPlan(
        crashes=(NodeCrash("c", "edge-a", at_ms=4_000.0, restart_at_ms=9_000.0),)
    )
    config = HuntConfig(scenario="canonical", shrink_budget=2)
    # Signature that never reproduces: every candidate costs one run and
    # the budget must stop the search, not the phase structure.
    shrunk, runs = shrink(plan, 5, config, "no_such_invariant")
    assert shrunk == plan
    assert runs <= 2
