"""Golden metro digests: the kernel's results pinned across commits.

The perf ledger's ``sim_digest`` only compares rounds inside one run,
and the determinism tests compare a run with itself; nothing compared
the metro kernel with *yesterday's* metro kernel. These two scenarios
pin every ``MetroReport`` counter, the float reprs and a crc32 over the
ordered trace, so a control-path rewrite that is meant to be
bit-identical has to prove it. Each runs traced and untraced: both run
the same array path, capture only adds the ``FrameDone`` emit loop after
it, and the untraced run is the one every benchmark times.

The expected values were recorded on commit d47b25e (before the control
path went array-form), except the traced reselect row's trace fields:
its ``trace_crc32`` was re-recorded once when ``covered_failover`` began
naming the backup the user moved to instead of the node that died, and
its ``trace_events`` (74 163 -> 74 569, one per switch) and
``trace_crc32`` once more when a re-selection switch began emitting
``join_accept`` before ``switch``, as ``SelectionMachine`` does. Both
traced rows' ``trace_crc32`` were re-recorded when the report's trace
came out in time order (each shard's trace stable-sorted by ``t_ms``,
the shards merged by it): the same events, counts and counters, in a
new order. The reselect rows (and the violation counts below) were
re-recorded once more when a metro switch began to need both hysteresis
margins, as in ``SelectionMachine``, instead of either one: fewer
switches and handoffs. Re-record them only for a change that is *meant* to move
results, and say so in CHANGES.md::

    PYTHONPATH=src python tests/test_metro_golden.py
"""

import json
import random
import zlib
from collections import Counter

import pytest

from repro.core.config import SystemConfig
from repro.metro import MetroSimulation, MetroSpec, ShardSpec
from repro.verify.invariants import check_events

COUNTERS = (
    "frames_done", "frames_lost", "switches", "covered_failovers",
    "uncovered_failures", "handoffs", "unattached_initial",
    "frames_advanced", "control_ops",
)


def snapshot(report):
    crc = 0
    for event in report.trace_events:
        line = json.dumps(event.to_dict(), sort_keys=True)
        crc = zlib.crc32(line.encode(), crc)
    out = {name: getattr(report, name) for name in COUNTERS}
    out["latency_sum_ms"] = repr(report.latency_sum_ms)
    out["latency_max_ms"] = repr(report.latency_max_ms)
    out["mean_latency_ms"] = repr(report.mean_latency_ms)
    out["trace_events"] = len(report.trace_events)
    out["trace_crc32"] = crc
    return out


def run_reselect(capture_trace=True):
    """4 shards, 5 s probing, 30 of 200 nodes fail: switches, boundary
    handoffs, covered and uncovered failovers, and migrants whose target
    died in transit (some of them left uncovered) all occur."""
    seed, nodes, sim_seconds = 12, 200, 12.0
    spec = MetroSpec(nodes=nodes, users=1_500, region_km=30.0, fps=4.0,
                     shard=ShardSpec(count=4))
    config = SystemConfig(seed=seed, probing_period_ms=5_000.0)
    sim = MetroSimulation(spec, config, capture_trace=capture_trace)
    rng = random.Random(seed)
    for gid in rng.sample(range(nodes), 30):
        sim.schedule_node_fail(
            gid, rng.uniform(1_000.0, sim_seconds * 1000.0 - 1_000.0)
        )
    return sim.run(sim_seconds)


def run_cohort(capture_trace=True):
    """One shard, probing off: the t=0 attach and nothing but cohort
    advancement after it."""
    spec = MetroSpec(nodes=300, users=3_000, fps=4.0)
    config = SystemConfig(seed=42, probing_period_ms=3.6e6)
    return MetroSimulation(spec, config, capture_trace=capture_trace).run(3.0)


SCENARIOS = {"reselect": run_reselect, "cohort": run_cohort}

GOLDEN = {
    "cohort": {
        "frames_done": 36000, "frames_lost": 0, "switches": 0,
        "covered_failovers": 0, "uncovered_failures": 0, "handoffs": 0,
        "unattached_initial": 0, "frames_advanced": 36000,
        "control_ops": 3000,
        "latency_sum_ms": "4670488.293466863",
        "latency_max_ms": "530.7386901995575",
        "mean_latency_ms": "129.73578592963509",
        "trace_events": 39000, "trace_crc32": 1560061867,
    },
    "reselect": {
        "frames_done": 71475, "frames_lost": 525, "switches": 292,
        "covered_failovers": 232, "uncovered_failures": 10, "handoffs": 212,
        "unattached_initial": 3, "frames_advanced": 72000,
        "control_ops": 3842,
        "latency_sum_ms": "5933145.704128026",
        "latency_max_ms": "530.698664937811",
        "mean_latency_ms": "83.01008330364499",
        "trace_events": 74249, "trace_crc32": 4083659778,
    },
}


TRACE_ONLY = ("trace_events", "trace_crc32")


@pytest.mark.parametrize(
    "name, capture_trace",
    [
        pytest.param(name, traced, id=name if traced else f"{name}-untraced")
        for traced in (True, False)
        for name in sorted(SCENARIOS)
    ],
)
def test_metro_run_matches_golden(name, capture_trace):
    got = snapshot(SCENARIOS[name](capture_trace))
    expected = dict(GOLDEN[name])
    if not capture_trace:
        assert got["trace_events"] == 0
        for field in TRACE_ONLY:
            del got[field], expected[field]
    assert got == expected


def test_reselect_scenario_exercises_every_control_path():
    golden = GOLDEN["reselect"]
    for counter in ("switches", "covered_failovers", "uncovered_failures",
                    "handoffs", "unattached_initial", "frames_lost"):
        assert golden[counter] > 0, counter


def test_reselect_trace_fails_over_only_onto_live_nodes():
    """``covered_failover`` names the backup the user moved to, as in
    ``SelectionMachine`` — not the node that died."""
    report = run_reselect()
    assert any(e.type == "covered_failover" for e in report.trace_events)
    onto_dead = [v.message for v in check_events(report.trace_events)
                 if "failed over to dead node" in v.message]
    assert onto_dead == []


def test_reselect_trace_leaves_only_uncovered_users_on_dead_nodes():
    """A re-selection switch emits ``join_accept`` before ``switch``, so
    the checker follows the user to the new node, and the report's trace
    is in time order, so the checker reads it as stored. Every violation
    left, of either kind, is about a user whose failure found no live
    candidate: the metro kernel does not re-discover for them yet, and
    the counts below are that gap."""
    events = run_reselect().trace_events
    uncovered = {e.user_id for e in events if e.type == "uncovered_failure"}
    violations = check_events(events)
    assert Counter(v.invariant for v in violations) == {
        "failover_stall": 10, "attachment_consistency": 7,
    }
    assert {v.subject for v in violations} <= uncovered


if __name__ == "__main__":
    for scenario in sorted(SCENARIOS):
        print(f'    "{scenario}": {snapshot(SCENARIOS[scenario]())!r},')
