"""Sharded metro runs: partitioning, bit-identity, handoffs, workers."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import SystemConfig
from repro.metro.kernel import MetroKernel
from repro.metro.runner import MetroSimulation
from repro.metro.shard import plan_shards
from repro.metro.spec import EPOCH_MS, TICK_MS, MetroSpec, ShardSpec, build_population
from repro.obs.tracer import Tracer

SPEC = MetroSpec(nodes=600, users=2_000, region_km=20.0, fps=10.0)


def config_for_tests(**overrides):
    kwargs = {"seed": 5, "min_dwell_ms": 1_000.0}
    kwargs.update(overrides)
    return SystemConfig(**kwargs)


def event_multiset(events):
    return Counter(tuple(sorted(e.to_dict().items())) for e in events)


# ----------------------------------------------------------------------
# Partition planning
# ----------------------------------------------------------------------
def test_plan_single_shard_owns_everything():
    population = build_population(SPEC, seed=5)
    plan = plan_shards(SPEC, population)
    assert plan.count == 1
    assert plan.node_gids[0].size == SPEC.nodes
    assert plan.user_gids[0].size == SPEC.users
    assert plan.ghost_gids[0].size == 0
    assert plan.export_gids[0].size == 0


def test_plan_partitions_are_disjoint_and_complete():
    spec = replace(SPEC, shard=ShardSpec(count=3))
    population = build_population(spec, seed=5)
    plan = plan_shards(spec, population)
    assert plan.count == 3
    all_nodes = np.concatenate(plan.node_gids)
    all_users = np.concatenate(plan.user_gids)
    assert sorted(all_nodes.tolist()) == list(range(spec.nodes))
    assert sorted(all_users.tolist()) == list(range(spec.users))
    for g in range(3):
        # A shard never ghosts a node it owns.
        assert not set(plan.ghost_gids[g]) & set(plan.node_gids[g])
        # Every ghost is exported by its owning shard.
        for gid, owner in zip(plan.ghost_gids[g], plan.ghost_owners[g]):
            assert gid in plan.export_gids[owner]
            assert plan.node_shard[gid] == owner


def test_plan_is_deterministic():
    spec = replace(SPEC, shard=ShardSpec(count=4))
    population = build_population(spec, seed=5)
    a = plan_shards(spec, population)
    b = plan_shards(spec, population)
    for g in range(4):
        assert np.array_equal(a.node_gids[g], b.node_gids[g])
        assert np.array_equal(a.ghost_gids[g], b.ghost_gids[g])


# ----------------------------------------------------------------------
# shards=1 == the unsharded kernel, event for event
# ----------------------------------------------------------------------
def test_single_shard_is_bit_identical_to_unsharded_kernel():
    config = config_for_tests()
    sim = MetroSimulation(SPEC, config, capture_trace=True)
    sim.schedule_node_fail(3, at_ms=2_000.0)
    sharded = sim.run(6.0)

    population = build_population(SPEC, config.seed)
    kernel = MetroKernel(config, SPEC, population, shard_id="shard0",
                         tracer=Tracer(enabled=True, capacity=1 << 20))
    kernel.schedule_node_fail(3, at_ms=2_000.0)
    direct = kernel.run(6.0)

    # Ordered equality — not just the multiset: same events, same order.
    assert [e.to_dict() for e in sharded.trace_events] == [
        e.to_dict() for e in direct.trace_events
    ]
    assert sharded.frames_done == direct.frames_done
    assert sharded.latency_sum_ms == direct.latency_sum_ms
    assert sharded.latency_max_ms == direct.latency_max_ms
    assert sharded.covered_failovers == direct.covered_failovers


# ----------------------------------------------------------------------
# Sharded determinism + the boundary channel
# ----------------------------------------------------------------------
def test_sharded_run_is_deterministic():
    spec = replace(SPEC, shard=ShardSpec(count=2))
    runs = [
        MetroSimulation(spec, config_for_tests(), capture_trace=True).run(6.0)
        for _ in range(2)
    ]
    assert runs[0].frames_done == runs[1].frames_done
    assert runs[0].switches == runs[1].switches
    assert runs[0].handoffs == runs[1].handoffs
    assert runs[0].latency_sum_ms == runs[1].latency_sum_ms
    assert event_multiset(runs[0].trace_events) == event_multiset(
        runs[1].trace_events
    )


def test_boundary_handoffs_migrate_users_between_shards():
    """Regression: ghost selections must actually move users across the
    boundary channel — and conserve them."""
    spec = MetroSpec(
        nodes=600, users=2_000, region_km=20.0, fps=10.0,
        shard=ShardSpec(count=2),
    )
    config = config_for_tests(probing_period_ms=2_000.0)
    report = MetroSimulation(spec, config, capture_trace=True).run(10.0)
    assert report.handoffs > 0
    handoff_events = [
        e for e in report.trace_events if e.type == "shard_handoff"
    ]
    assert len(handoff_events) == report.handoffs
    for event in handoff_events:
        assert event.from_shard != event.to_shard
    # Conservation: every handoff out arrives somewhere.
    assert sum(r.handoffs_out for r in report.shard_reports) == sum(
        r.handoffs_in for r in report.shard_reports
    )
    # No users were lost to the channel: all frames accounted for.
    assert report.frames_done + report.frames_lost == 2_000 * 10 * 10


def test_failure_under_sharding_is_conservative_and_deterministic():
    """A node death routes to the owning shard; the run keeps every
    frame accounted for and replays identically."""
    spec = replace(SPEC, shard=ShardSpec(count=2))
    config = config_for_tests()
    population = build_population(spec, config.seed)
    plan = plan_shards(spec, population)
    victim = int(plan.node_gids[0][0])

    def run_with_failure():
        sim = MetroSimulation(spec, config, capture_trace=True)
        sim.schedule_node_fail(victim, at_ms=2_000.0)
        return sim.run(6.0)

    first = run_with_failure()
    assert first.covered_failovers + first.uncovered_failures > 0
    assert first.frames_done + first.frames_lost == 2_000 * 10 * 6
    fails = [e for e in first.trace_events if e.type == "node_fail"]
    assert [e.node_id for e in fails] == [f"n{victim}"]

    second = run_with_failure()
    assert second.frames_done == first.frames_done
    assert second.covered_failovers == first.covered_failovers
    assert event_multiset(second.trace_events) == event_multiset(
        first.trace_events
    )


@pytest.mark.parametrize("count", [1, 4])
@pytest.mark.parametrize(
    "gid, at_ms",
    [(-1, 1_000.0), (50, 1_000.0), (0, float("nan")), (0, float("inf")), (0, -1.0)],
)
def test_schedule_node_fail_checks_its_input_at_the_call(count, gid, at_ms):
    """A gid outside ``[0, nodes)`` or a time that is not a finite,
    non-negative number is refused when it is scheduled, not later
    inside ``run()``; the run that follows is not touched."""
    spec = MetroSpec(nodes=50, users=100, region_km=20.0, shard=ShardSpec(count=count))
    sim = MetroSimulation(spec, config_for_tests())
    with pytest.raises(ValueError):
        sim.schedule_node_fail(gid, at_ms)
    sim.schedule_node_fail(49, 0.0)  # the edges of the valid range
    assert sim.run(1.0).frames_done > 0


@pytest.mark.parametrize("capture_trace", [False, True])
@pytest.mark.parametrize("nodes", [1, 2, 3, 5])
def test_shard_that_owns_users_but_no_node_builds_and_runs(nodes, capture_trace):
    """Fewer nodes than shards: some shard gets users and an empty node
    table (nodes=5: one holding a ghost only). It must build; its users
    stay unattached and lose every due frame, and the report adds up."""
    spec = MetroSpec(nodes=nodes, users=400, region_km=40.0, fps=4.0,
                     shard=ShardSpec(count=4))
    sim = MetroSimulation(spec, SystemConfig(seed=3), capture_trace=capture_trace)
    _, kernels = sim.build_kernels()
    nodeless = [g for g, k in enumerate(kernels) if k.u_gid.size and k.n_ghost.all()]
    # One of them without even a ghost: nothing for the advance to gather from.
    assert any(kernels[g].n_gid.size == 0 for g in nodeless)

    report = sim.run(3.0)
    assert report.frames_done + report.frames_lost == 400 * 4 * 3
    assert report.frames_done > 0
    for g in nodeless:
        shard = report.shard_reports[g]
        assert shard.users == kernels[g].u_gid.size
        assert shard.unattached_initial == shard.users
        assert shard.frames_done == 0
        assert shard.frames_lost == shard.frames_advanced == shard.users * 4 * 3


@pytest.mark.parametrize("count, workers", [(1, 1), (4, 1), (4, 2)])
def test_report_trace_is_in_time_order(count, workers):
    """Each shard's trace is stable-sorted by time and the shards' traces
    merged by it, serial or forked: a tick's ``frame_done`` events, and a
    later shard's events, never come before an earlier event."""
    if workers > 1:
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
    spec = replace(SPEC, shard=ShardSpec(count=count, workers=workers))
    sim = MetroSimulation(spec, config_for_tests(probing_period_ms=2_000.0),
                          capture_trace=True)
    sim.schedule_node_fail(3, at_ms=2_000.0)
    report = sim.run(4.0)
    times = [e.t_ms for e in report.trace_events]
    assert len(times) == sum(len(r.trace_events) for r in report.shard_reports)
    assert times == sorted(times)


# ----------------------------------------------------------------------
# Worker processes are a pure wall-clock optimization
# ----------------------------------------------------------------------
def test_forked_workers_match_serial_results():
    pytest.importorskip("multiprocessing")
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork start method unavailable")
    spec = replace(SPEC, shard=ShardSpec(count=2, workers=1))
    serial = MetroSimulation(spec, config_for_tests(), capture_trace=True).run(5.0)
    spec_workers = replace(SPEC, shard=ShardSpec(count=2, workers=2))
    forked = MetroSimulation(
        spec_workers, config_for_tests(), capture_trace=True
    ).run(5.0)
    assert forked.frames_done == serial.frames_done
    assert forked.switches == serial.switches
    assert forked.handoffs == serial.handoffs
    assert forked.latency_sum_ms == serial.latency_sum_ms
    assert event_multiset(forked.trace_events) == event_multiset(
        serial.trace_events
    )


# ----------------------------------------------------------------------
# Config plumbing
# ----------------------------------------------------------------------
def test_config_cannot_set_the_partition():
    """``MetroSpec.shard`` is the only place a partition is set: the
    config has no shard knobs, and a default spec runs one shard."""
    with pytest.raises(TypeError):
        config_for_tests(metro_shards=2)
    sim = MetroSimulation(SPEC, config_for_tests())
    assert sim.spec.shard == ShardSpec()


def test_explicit_shard_spec_wins_over_config():
    """Every field of the spec's shard shape reaches the run as given."""
    shard = ShardSpec(count=2, workers=2)
    sim = MetroSimulation(replace(SPEC, shard=shard), config_for_tests())
    assert sim.spec.shard is shard


def test_epoch_must_align_with_tick():
    """The boundary epoch is a whole number of ticks, so every epoch
    boundary the runner steps the kernels to is a tick boundary."""
    assert EPOCH_MS >= TICK_MS
    assert EPOCH_MS % TICK_MS == 0
