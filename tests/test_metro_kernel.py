"""The unsharded metro kernel: determinism, counters, stepping modes."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import SystemConfig
from repro.geo import geohash
from repro.metro.kernel import MetroKernel, _haversine_km
from repro.metro.spec import MetroPopulation, MetroSpec, build_population
from repro.obs.tracer import Tracer


def make_kernel(config=None, *, nodes=150, users=600, tracer=None, fps=10.0):
    config = config if config is not None else SystemConfig(seed=5)
    spec = MetroSpec(nodes=nodes, users=users, region_km=20.0, fps=fps)
    population = build_population(spec, config.seed)
    return MetroKernel(config, spec, population, tracer=tracer)


def config_for_tests(**overrides):
    """Short-run friendly: dwell low enough that switches can happen."""
    kwargs = {"seed": 5, "min_dwell_ms": 1_000.0}
    kwargs.update(overrides)
    return SystemConfig(**kwargs)


def event_multiset(tracer):
    return Counter(
        tuple(sorted(e.to_dict().items())) for e in tracer.events()
    )


def test_all_users_attach_and_stream():
    kernel = make_kernel()
    report = kernel.run(5.0)
    assert report.unattached_initial == 0
    assert report.frames_done == 600 * 10 * 5
    assert report.frames_lost == 0
    assert report.mean_latency_ms > 0


def test_counters_are_deterministic_across_runs():
    a = make_kernel(config_for_tests()).run(10.0)
    b = make_kernel(config_for_tests()).run(10.0)
    assert a.frames_done == b.frames_done
    assert a.switches == b.switches
    assert a.latency_sum_ms == b.latency_sum_ms
    assert a.latency_max_ms == b.latency_max_ms


def test_trace_is_deterministic_and_ordered():
    tracers = [Tracer(enabled=True, capacity=1 << 20) for _ in range(2)]
    for tracer in tracers:
        make_kernel(config_for_tests(), tracer=tracer).run(5.0)
    a = [e.to_dict() for e in tracers[0].events()]
    b = [e.to_dict() for e in tracers[1].events()]
    assert a == b
    assert len(a) > 0


def test_scheduled_failure_is_detected_and_covered():
    tracer = Tracer(enabled=True, capacity=1 << 20)
    config = config_for_tests()
    kernel = make_kernel(config, tracer=tracer)
    victim = int(kernel.n_gid[0])
    kernel.schedule_node_fail(victim, at_ms=2_000.0)
    report = kernel.run(8.0)
    fails = tracer.events("node_fail")
    assert len(fails) == 1 and fails[0].node_id == f"n{victim}"
    # Every user parked on the victim either failed over or was orphaned.
    assert report.covered_failovers + report.uncovered_failures >= 0
    assert not kernel.n_alive[0]


def test_schedule_fail_rejects_unknown_node():
    kernel = make_kernel()
    with pytest.raises(KeyError):
        kernel.schedule_node_fail(10**9, at_ms=100.0)


def test_step_to_requires_tick_boundary():
    kernel = make_kernel()
    with pytest.raises(ValueError):
        kernel.step_to(333.0)  # not a multiple of cohort_tick_ms=250


def test_batched_and_per_client_counters_match():
    """The two stepping modes are observably the same simulation."""
    batched = make_kernel(config_for_tests(cohort_batching=True)).run(5.0)
    per_client = make_kernel(config_for_tests(cohort_batching=False)).run(5.0)
    assert batched.frames_done == per_client.frames_done
    assert batched.frames_lost == per_client.frames_lost
    assert batched.switches == per_client.switches
    assert batched.covered_failovers == per_client.covered_failovers
    # Identical per-frame latencies; the accumulation order differs, so
    # the float sums agree to rounding, not bit-for-bit.
    assert batched.latency_max_ms == per_client.latency_max_ms
    assert batched.mean_latency_ms == pytest.approx(
        per_client.mean_latency_ms, rel=1e-9
    )


def test_traced_and_untraced_batched_runs_agree():
    """Tracing swaps in a python loop; it must not change the physics."""
    tracer = Tracer(enabled=True, capacity=1 << 20)
    traced = make_kernel(config_for_tests(), tracer=tracer).run(5.0)
    untraced = make_kernel(config_for_tests()).run(5.0)
    assert traced.frames_done == untraced.frames_done
    assert traced.switches == untraced.switches
    assert traced.latency_sum_ms == untraced.latency_sum_ms
    assert traced.latency_max_ms == untraced.latency_max_ms


def test_per_client_mode_recycles_pooled_events():
    report = make_kernel(config_for_tests(cohort_batching=False)).run(5.0)
    assert report.pool_acquired == report.frames_advanced
    assert report.pool_recycled > report.pool_acquired // 2


def test_batched_mode_schedules_no_frame_events():
    report = make_kernel(config_for_tests(cohort_batching=True)).run(5.0)
    assert report.pool_acquired == 0


def test_run_rejects_nonpositive_horizon():
    kernel = make_kernel()
    with pytest.raises(ValueError):
        kernel.run(0.0)


def test_frame_accounting_matches_fps():
    config = config_for_tests()
    report = make_kernel(config, nodes=80, users=200, fps=4.0).run(10.0)
    assert report.frames_done + report.frames_lost == 200 * 4 * 10


# ----------------------------------------------------------------------
# The array-form control path: what batch scoring relies on
# ----------------------------------------------------------------------
def test_base_vec_over_pairs_equals_one_pair_calls_bitwise():
    """Scoring (user, node) pairs in one flat pass must give each pair
    the float64 a one-pair call gives it — whatever the batch length
    (SIMD body vs. tail) and wherever the pair sits in the batch."""
    kernel = make_kernel()
    rng = np.random.default_rng(3)
    users = rng.integers(0, kernel.u_gid.size, 72)
    nodes = rng.integers(0, kernel.n_gid.size, 72)
    single = np.array(
        [kernel._base_vec(users[i : i + 1], nodes[i : i + 1])[0] for i in range(72)]
    )
    for length in range(1, 68):
        for offset in (0, 1, 5):
            window = slice(offset, offset + length)
            batch = kernel._base_vec(users[window], nodes[window])
            assert (batch == single[window]).all(), (length, offset)
    # Views that do not start on the allocation's alignment.
    u_lat, u_lon = kernel.u_lat[users], kernel.u_lon[users]
    n_lat, n_lon = kernel.n_lat[nodes], kernel.n_lon[nodes]
    whole = _haversine_km(u_lat, u_lon, n_lat, n_lon)
    for offset in (1, 2, 3, 7):
        for length in (1, 2, 9, 33, 64):
            window = slice(offset, offset + length)
            view = _haversine_km(u_lat[window], u_lon[window], n_lat[window], n_lon[window])
            assert (view == whole[window]).all(), (length, offset)


def test_node_wait_of_a_subset_equals_the_whole_fleet_entries():
    kernel = make_kernel()
    kernel.step_to(1_000.0)  # loads are in place
    whole = kernel._node_wait()
    assert whole.max() > 0.0
    for subset in (np.array([7]), np.array([149, 0, 33]), np.arange(1, 68)):
        assert (kernel._node_wait(subset) == whole[subset]).all()


def explicit_kernel(node_points, user_points, precision=5):
    """A kernel over hand-placed endpoints (lat, lon)."""
    node_lat, node_lon = (np.array(x, dtype=float) for x in zip(*node_points))
    user_lat, user_lon = (np.array(x, dtype=float) for x in zip(*user_points))
    population = MetroPopulation(
        node_lat=node_lat, node_lon=node_lon,
        node_service_ms=np.full(node_lat.size, 25.0),
        node_capacity_fps=np.full(node_lat.size, 40.0),
        user_lat=user_lat, user_lon=user_lon,
        user_phase_ms=np.zeros(user_lat.size),
        node_cell=geohash.encode_cells(node_lat, node_lon, precision),
        user_cell=geohash.encode_cells(user_lat, user_lon, precision),
        cell_precision=precision,
    )
    spec = MetroSpec(nodes=node_lat.size, users=user_lat.size, cell_precision=precision)
    return MetroKernel(SystemConfig(seed=5), spec, population)


def test_table_filled_candidates_equal_per_cell_lookups():
    """One neighbourhood call over all cells fills the same table as one
    call per cell — on a metro, across the antimeridian, at a pole and
    for a cell with no node near it."""
    edge_nodes = [(0.01, 179.99), (0.01, -179.99), (-0.02, 179.97),
                  (89.99, 11.01), (89.99, -169.0), (89.94, 11.0), (44.98, -93.27)]
    edge_users = [(0.0, 179.98), (0.0, -179.98), (89.98, 11.0), (10.0, 10.0),
                  (44.97, -93.26)]
    for build in (make_kernel, lambda: explicit_kernel(edge_nodes, edge_users)):
        table, single = build(), build()
        cells = np.unique(table.u_cell)
        table._fill_cell_cands(cells)
        for cell in cells.tolist():
            assert np.array_equal(table._cell_cands[cell], single._candidates(cell))
        assert sorted(single._cell_cands) == cells.tolist()
    # The hand-placed cases really are the edge cases they claim to be.
    by_user = [single._candidates(c).tolist() for c in single.u_cell.tolist()]
    assert by_user[0] == by_user[1] == [0, 1, 2]  # both sides of lon 180
    assert by_user[2] == [3, 5]  # top row: clamped, not wrapped to n4
    assert by_user[3] == []  # nobody near (10, 10)
    assert by_user[4] == [6]


@pytest.mark.parametrize("region_km", [8.0, 40.0])
def test_neighbourhoods_are_resolved_in_one_call_per_run(monkeypatch, region_km):
    """O(1) ``cell_neighborhood`` calls however many cells are occupied:
    a call per occupied cell costs more than the rest of a metro round."""
    sizes = []
    real = geohash.cell_neighborhood

    def counted(cells, precision):
        sizes.append(len(cells))
        return real(cells, precision)

    monkeypatch.setattr(geohash, "cell_neighborhood", counted)
    spec = MetroSpec(nodes=300, users=3_000, region_km=region_km, fps=4.0)
    config = config_for_tests(probing_period_ms=1_000.0)
    kernel = MetroKernel(config, spec, build_population(spec, config.seed))
    report = kernel.run(3.0)
    assert report.control_ops > 3_000  # re-selection rounds did run
    assert len(sizes) <= 2
    assert sizes[0] == np.unique(kernel.u_cell).size


def test_initial_attach_reads_wait_of_candidates_only(monkeypatch):
    """The t=0 attach never derives the whole fleet's wait: per occupied
    cell that is O(cells x nodes)."""
    kernel = make_kernel()
    asked = []
    real = kernel._node_wait

    def recorded(nodes=None):
        asked.append(nodes)
        return real(nodes)

    monkeypatch.setattr(kernel, "_node_wait", recorded)
    kernel._initial_attach()
    assert asked and all(nodes is not None for nodes in asked)
