"""The unsharded metro kernel: determinism, counters, the per-frame
reference."""

import copy
from collections import Counter
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import SystemConfig
from repro.geo import geohash
from repro.geo.point import GeoPoint
from repro.metro import kernel as kernel_module
from repro.metro.kernel import MetroKernel, _haversine_km
from repro.metro.reference import PerFrameKernel
from repro.metro.runner import MetroSimulation
from repro.metro.spec import (
    FRAME_TRANSFER_MS,
    MetroPopulation,
    MetroSpec,
    ShardSpec,
    build_population,
)
from repro.net.latency import DistanceRttModel, NetworkTier
from repro.net.topology import EndpointSpec
from repro.obs.events import JoinAccept
from repro.obs.tracer import Tracer
from repro.protocol.selection import SelectionConfig


def make_kernel(config=None, *, nodes=150, users=600, tracer=None, fps=10.0,
                kernel_cls=MetroKernel):
    config = config if config is not None else SystemConfig(seed=5)
    spec = MetroSpec(nodes=nodes, users=users, region_km=20.0, fps=fps)
    population = build_population(spec, config.seed)
    return kernel_cls(config, spec, population, tracer=tracer)


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


def test_a_detection_walks_each_users_adopted_backups():
    """Rows from the t=0 attach, no round after it: each user of a dead
    node moves to the first entry of its backup row that is alive and
    owned, skipping a backup that died with it — no scoring — and a user
    whose row holds none is uncovered and re-discovers at once."""
    config = config_for_tests(probing_period_ms=3.6e6, min_dwell_ms=5_000.0)
    kernel = make_kernel(config, tracer=Tracer(enabled=True, capacity=1 << 20))
    kernel.step_to(3_000.0)
    victim = int(np.bincount(kernel.u_node[kernel.u_node >= 0]).argmax())
    orphans = np.flatnonzero(kernel.u_node == victim)
    rows = kernel.u_backup[orphans].tolist()
    full = next(i for i, row in enumerate(rows) if row[-1] >= 0)
    for dead in (victim, rows[full][0]):
        kernel.schedule_node_fail(int(kernel.n_gid[dead]), 3_000.0)
    kernel.step_to(3_500.0)
    usable = kernel.n_alive & ~kernel.n_ghost
    walked = [next((b for b in row if b >= 0 and usable[b]), -1) for row in rows]
    assert walked[full] == rows[full][1] >= 0  # its first backup died too
    moved = {e.user_id: e.node_id for e in kernel.trace.events("covered_failover")}
    lost = {e.user_id for e in kernel.trace.events("uncovered_failure")}
    for u, to in zip(orphans.tolist(), walked):
        name = kernel._user_name(u)
        if to >= 0:
            assert kernel.u_node[u] == to and moved[name] == kernel._node_name(to)
        else:
            assert name in lost and name not in moved
    assert all(usable[kernel.u_node[orphans]])


def test_schedule_fail_rejects_unknown_node():
    kernel = make_kernel()
    with pytest.raises(KeyError):
        kernel.schedule_node_fail(10**9, at_ms=100.0)


def test_step_to_requires_tick_boundary():
    kernel = make_kernel()
    with pytest.raises(ValueError):
        kernel.step_to(333.0)  # not a multiple of TICK_MS=250


def test_batched_and_per_client_counters_match():
    """The cohort path and the per-frame reference are observably the
    same simulation."""
    batched = make_kernel(config_for_tests()).run(5.0)
    per_client = make_kernel(config_for_tests(), kernel_cls=PerFrameKernel).run(5.0)
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
    """Capture adds a python emit loop; it must not change the physics."""
    tracer = Tracer(enabled=True, capacity=1 << 20)
    traced = make_kernel(config_for_tests(), tracer=tracer).run(5.0)
    untraced = make_kernel(config_for_tests()).run(5.0)
    assert traced.frames_done == untraced.frames_done
    assert traced.switches == untraced.switches
    assert traced.latency_sum_ms == untraced.latency_sum_ms
    assert traced.latency_max_ms == untraced.latency_max_ms


def test_per_client_mode_runs_one_simulator_event_per_frame():
    kernel = make_kernel(config_for_tests(), kernel_cls=PerFrameKernel)
    report = kernel.run(5.0)
    assert report.frames_advanced > 0
    assert kernel._frame_sim.events_processed == report.frames_advanced
    assert kernel._frame_sim.now == 5_000.0


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


def test_base_vec_is_the_sims_expected_rtt_plus_transfer_and_service():
    """Metro's base latency is ``DistanceRttModel.expected_rtt_ms`` for
    two HOME_WIFI endpoints, plus the frame transfer and the service
    time. The scalar and the numpy haversine order their operations
    differently, so the two agree to rounding, not to the bit."""
    kernel = make_kernel()
    model = DistanceRttModel()
    rng = np.random.default_rng(7)
    users = rng.integers(0, kernel.u_gid.size, 64)
    nodes = rng.integers(0, kernel.n_gid.size, 64)
    base = kernel._base_vec(users, nodes)
    for i, (u, n) in enumerate(zip(users.tolist(), nodes.tolist())):
        user = EndpointSpec(GeoPoint(kernel.u_lat[u], kernel.u_lon[u]),
                            NetworkTier.HOME_WIFI)
        node = EndpointSpec(GeoPoint(kernel.n_lat[n], kernel.n_lon[n]),
                            NetworkTier.HOME_WIFI)
        expected = (model.expected_rtt_ms(user, node)
                    + FRAME_TRANSFER_MS + kernel.n_service[n])
        assert base[i] == pytest.approx(expected, rel=1e-12)


def test_node_wait_of_a_subset_equals_the_whole_fleet_entries():
    kernel = make_kernel()
    kernel.step_to(1_000.0)  # loads are in place
    whole = kernel._node_wait()
    assert whole.max() > 0.0
    for subset in (np.array([7]), np.array([149, 0, 33]), np.arange(1, 68)):
        assert (kernel._node_wait(subset) == whole[subset]).all()


def node_wait_clipped(kernel, nodes=None):
    """Reference: ``_node_wait`` with ``rho`` through ``np.clip``, the
    form it replaced."""
    load, service = kernel.n_load, kernel.n_service
    if nodes is not None:
        load, service = load[nodes], service[nodes]
    rho = np.clip(load * service / 1000.0, 0.0, kernel_module._RHO_CAP)
    return service * rho / (2.0 * (1.0 - rho))


@settings(max_examples=60, deadline=None)
@given(
    fps=st.one_of(st.sampled_from([4.0, 10.0, 0.1, 1.0 / 3.0]),
                  st.floats(min_value=1e-3, max_value=60.0)),
    moves=st.lists(st.tuples(st.integers(0, 149), st.booleans()), max_size=400),
    past=st.floats(min_value=1.0, max_value=50.0),
)
def test_node_wait_is_bit_equal_to_the_clipped_form_on_loads_a_kernel_holds(fps, moves, past):
    """``n_load`` starts at +0.0 and only gains or loses ``fps``, so it
    never holds -0.0, the one input on which ``np.minimum(np.maximum())``
    and ``np.clip`` differ. Loads built that way — a difference may
    round below zero — and loads at and past the cap give the same bits."""
    kernel = make_kernel(fps=fps)
    load = np.zeros(kernel.n_gid.size)
    for node, join in moves:
        load[node] += fps if join else -fps
    cap = kernel_module._RHO_CAP * 1000.0 / kernel.n_service
    load[100:110] = cap[100:110]
    load[110:120] = cap[110:120] * past
    load[120:130] = np.nextafter(cap[120:130], np.inf)
    kernel.n_load[:] = load
    for nodes in (None, np.arange(100, 130), np.array([0, 149, 3])):
        expected = node_wait_clipped(kernel, nodes).view(np.uint64)
        assert np.array_equal(kernel._node_wait(nodes).view(np.uint64), expected)


def explicit_kernel(node_points, user_points, precision=5, service_ms=25.0):
    """A kernel over hand-placed endpoints (lat, lon); ``service_ms`` is
    every node's, or one per node."""
    node_lat, node_lon = (np.array(x, dtype=float) for x in zip(*node_points))
    user_lat, user_lon = (np.array(x, dtype=float) for x in zip(*user_points))
    population = MetroPopulation(
        node_lat=node_lat, node_lon=node_lon,
        node_service_ms=np.broadcast_to(np.asarray(service_ms, dtype=float), node_lat.shape).copy(),
        user_lat=user_lat, user_lon=user_lon,
        user_phase_ms=np.zeros(user_lat.size),
        node_cell=geohash.encode_cells(node_lat, node_lon, precision),
        user_cell=geohash.encode_cells(user_lat, user_lon, precision),
        cell_precision=precision,
    )
    spec = MetroSpec(nodes=node_lat.size, users=user_lat.size)
    return MetroKernel(SystemConfig(seed=5), spec, population)


@pytest.mark.parametrize("slow_ms, switches", [(32.0, 0), (40.0, 1)])
def test_a_switch_needs_both_margins_as_in_the_selection_machine(slow_ms, switches):
    """The t=0 attach deals two users over two nodes, so one starts on
    the slow node. At 32 ms the fast node beats it by 15 % but not by
    15 % + 5 ms, and SelectionMachine's gate keeps the user where it is;
    at 40 ms it beats both margins and the user moves."""
    kernel = explicit_kernel(
        [(44.970, -93.250), (44.971, -93.250)], [(44.9701, -93.2501)] * 2,
        service_ms=[25.0, slow_ms],
    )
    kernel.step_to(250.0)
    assert kernel.u_node.tolist() == [0, 1]
    wait = kernel._node_wait()
    fast, slow = kernel._base_vec(np.array([1, 1]), np.array([0, 1])) + wait
    gate = SelectionConfig()
    assert fast < slow * (1.0 - gate.switch_penalty_fraction)
    assert (fast < gate.switch_threshold(slow)) == bool(switches)
    kernel.step_to(12_000.0)
    assert kernel.switches == switches
    assert kernel.u_node.tolist() == [0, 1 - switches]


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
        for cell in cells:
            single._fill_cell_cands(np.array([cell]))
            assert np.array_equal(table._cell_cands[int(cell)], single._cell_cands[int(cell)])
        assert sorted(single._cell_cands) == cells.tolist()
    # The hand-placed cases really are the edge cases they claim to be.
    by_user = [single._cell_cands[c].tolist() for c in single.u_cell.tolist()]
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


# ----------------------------------------------------------------------
# Build: the kernel owns its columns
# ----------------------------------------------------------------------
def test_kernel_columns_share_no_memory_with_the_population():
    """Fancy indexing already copies, so the constructor adds no
    ``.copy()`` — and "population: shared, never mutated" still holds."""
    config = SystemConfig(seed=5)
    spec = MetroSpec(nodes=150, users=600, region_km=20.0)
    population = build_population(spec, config.seed)
    before = {name: np.array(column) for name, column in vars(population).items()
              if isinstance(column, np.ndarray)}
    kernel = MetroKernel(config, spec, population)
    columns = [c for c in vars(kernel).values() if isinstance(c, np.ndarray)]
    assert len(columns) >= 20
    for column in columns:
        for name in before:
            assert not np.shares_memory(column, getattr(population, name)), name
    for column in columns:
        column[...] = 1  # every dtype in the table takes it
    for name, values in before.items():
        assert np.array_equal(getattr(population, name), values), name


# ----------------------------------------------------------------------
# The cohort path in whole-population form, held to the forms it replaced
# ----------------------------------------------------------------------
def initial_attach_per_cell(self):
    """Reference: the t=0 attach one occupied cell at a time — filter,
    centroid, distance, score, deal and ``u_base`` all inside the loop
    (the kernel's form until the load-independent work was hoisted) —
    and each user's backups as a list: the cell's ranking less its node."""
    if self.u_gid.size == 0:
        return
    cells, inverse = np.unique(self.u_cell, return_inverse=True)
    self._fill_cell_cands(cells)
    order = np.argsort(inverse, kind="stable")
    bounds = np.searchsorted(inverse[order], np.arange(cells.size + 1))
    for ci, cell in enumerate(cells.tolist()):
        users = order[bounds[ci] : bounds[ci + 1]]
        self.control_ops += len(users)
        cand = self._cell_cands[cell]
        cand = cand[self.n_alive[cand] & ~self.n_ghost[cand]]
        if cand.size == 0:
            self.unattached_initial += len(users)
            continue
        clat = float(np.mean(self.u_lat[users]))
        clon = float(np.mean(self.u_lon[users]))
        score = (
            self._rtt_ms(clat, clon, cand)
            + self.n_service[cand]
            + self._node_wait(cand)
        )
        ranked_all = cand[np.argsort(score, kind="stable")]
        capacity = 1000.0 / self.n_service[ranked_all]
        demand = users.size * self.fps
        need = int(np.searchsorted(np.cumsum(capacity), demand * 1.25)) + 1
        width = max(self.config.top_n, min(need, ranked_all.size))
        ranked = ranked_all[: min(width, ranked_all.size)]
        chosen = ranked[np.arange(users.size) % ranked.size]
        self.u_node[users] = chosen
        self.u_base[users] = self._base_vec(users, chosen)
        self.u_join_ms[users] = 0.0
        spare = self.config.top_n - 1
        for u, node in zip(users.tolist(), chosen.tolist()):
            row = [n for n in ranked_all.tolist() if n != node][:spare]
            self.u_backup[u] = row + [-1] * (spare - len(row))
        np.add.at(self.n_load, chosen, self.fps)
        if self.trace.enabled:
            for idx, u in enumerate(users):
                self.trace.emit(
                    JoinAccept(
                        0.0,
                        self._user_name(int(u)),
                        self._node_name(int(chosen[idx])),
                    )
                )


def advance_indexed(self, t0, t1, wait):
    """Reference: cohort advancement through ``flatnonzero`` index
    arrays — gather the attached users' rows, scatter the stats back."""
    m_lo, counts = self._frame_counts(t0, t1)
    counts = np.where(self.u_active, counts, 0)
    self.frames_advanced += int(counts.sum())
    att = counts > 0
    attached = att & (self.u_node >= 0)
    lost_unatt = att & (self.u_node < 0)
    self.u_lost[lost_unatt] += counts[lost_unatt]
    if not attached.any():
        return
    idx = np.flatnonzero(attached)
    nodes = self.u_node[idx]
    alive = self.n_alive[nodes]
    lat = self.u_base[idx] + wait[nodes]
    kcnt = counts[idx]
    done = idx[alive]
    self.u_frames[done] += kcnt[alive]
    self.u_lat_sum[done] += kcnt[alive] * lat[alive]
    self.u_lat_max[done] = np.maximum(self.u_lat_max[done], lat[alive])
    dead = idx[~alive]
    self.u_lost[dead] += kcnt[~alive]


def shard_kernels(seed, nodes, users, region_km, top_n, shards, fps=4.0):
    """One traced kernel per shard, as ``MetroSimulation`` builds them."""
    spec = MetroSpec(nodes=nodes, users=users, region_km=region_km, fps=fps,
                     shard=ShardSpec(count=shards))
    config = SystemConfig(seed=seed, top_n=top_n)
    return MetroSimulation(spec, config, capture_trace=True).build_kernels()[1]


def joins(kernel):
    return [(e.user_id, e.node_id) for e in kernel.trace.events("join_accept")]


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    nodes=st.integers(min_value=1, max_value=160),
    users=st.integers(min_value=1, max_value=900),
    region_km=st.sampled_from([2.0, 8.0, 25.0, 60.0]),
    top_n=st.integers(min_value=1, max_value=5),
    shards=st.sampled_from([1, 4]),
    dead_share=st.sampled_from([0.0, 0.0, 0.3, 1.0]),
    pair_cap=st.sampled_from([1, 7, 200, 1 << 14]),
)
def test_initial_attach_equals_the_per_cell_reference(
    seed, nodes, users, region_km, top_n, shards, dead_share, pair_cap
):
    """Same attachments, base latencies, join times, backups, loads,
    counters and the same JoinAccept sequence — with ``==``, chunked
    however."""
    args = (seed, nodes, users, region_km, top_n, shards)
    kill = np.random.default_rng(seed)
    for kernel, reference in zip(shard_kernels(*args), shard_kernels(*args)):
        dead = kill.random(kernel.n_gid.size) < dead_share
        kernel.n_alive[dead] = reference.n_alive[dead] = False
        with mock.patch.object(kernel_module, "_SCORE_CHUNK_PAIRS", pair_cap):
            kernel._initial_attach()
        initial_attach_per_cell(reference)
        assert (kernel.u_node == reference.u_node).all()
        assert (kernel.u_base == reference.u_base).all()
        assert (kernel.u_join_ms == reference.u_join_ms).all()
        assert (kernel.u_backup == reference.u_backup).all()
        assert (kernel.n_load == reference.n_load).all()
        assert kernel.control_ops == reference.control_ops == kernel.u_gid.size
        assert kernel.unattached_initial == reference.unattached_initial
        assert joins(kernel) == joins(reference)
        assert len(joins(kernel)) == int((kernel.u_node >= 0).sum())


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    nodes=st.integers(min_value=0, max_value=60),
    users=st.integers(min_value=1, max_value=500),
    fps=st.sampled_from([0.5, 3.0, 4.0, 10.0]),
    inactive=st.sampled_from([0.0, 0.2]),
    unattached=st.sampled_from([0.0, 0.2, 1.0]),
    dead=st.sampled_from([0.0, 0.3, 1.0]),
    pending=st.sampled_from([0.0, 0.2]),
)
def test_mask_form_advance_equals_the_indexed_reference(
    seed, nodes, users, fps, inactive, unattached, dead, pending
):
    """Tick after tick from the same state — inactive users, unattached
    users, users on a dead node, users waiting on a handoff, ticks in
    which most users have no frame due (fps 0.5), no node at all."""
    config = SystemConfig(seed=seed)
    spec = MetroSpec(nodes=max(nodes, 1), users=users, region_km=10.0, fps=fps)
    population = build_population(spec, seed)
    kernel = MetroKernel(config, spec, population,
                         node_gids=np.arange(nodes, dtype=np.int64))
    kernel._initial_attach()
    rng = np.random.default_rng(seed)
    kernel.u_active[rng.random(users) < inactive] = False
    kernel.u_node[rng.random(users) < unattached] = -1
    kernel.u_pending[rng.random(users) < pending] = 0
    kernel.n_alive[rng.random(nodes) < dead] = False
    reference = copy.deepcopy(kernel)
    for k in range(6):
        if nodes:  # the wait moves between ticks, so the max has to be kept
            kernel.n_load[:] = reference.n_load[:] = rng.random(nodes) * 40.0
        wait = kernel._node_wait()
        kernel._advance_frames(k)
        advance_indexed(reference, k * 250.0, (k + 1) * 250.0, wait)
        for column in ("u_frames", "u_lost", "u_lat_sum", "u_lat_max"):
            assert (getattr(kernel, column) == getattr(reference, column)).all(), column
        assert kernel.frames_advanced == reference.frames_advanced
    report, expected = kernel.report(), reference.report()
    assert report.frames_done + report.frames_lost == report.frames_advanced
    assert (report.frames_done, report.frames_lost) == (
        expected.frames_done, expected.frames_lost)
    assert report.latency_sum_ms == expected.latency_sum_ms
    assert report.latency_max_ms == expected.latency_max_ms


def test_flat_centroid_distance_pass_equals_per_cell_calls_bitwise():
    """The attach measures centroid -> candidate for many cells in one
    pass, centroids repeated per pair; the form it replaced made one call
    per cell with the centroid as two Python floats. Same float64 per
    pair, for every batch length 1..67 and past the pair cap."""
    rng = np.random.default_rng(11)
    n_lat = 44.98 + rng.uniform(-0.4, 0.4, 500)
    n_lon = -93.27 + rng.uniform(-0.5, 0.5, 500)
    for total in list(range(1, 68)) + [kernel_module._SCORE_CHUNK_PAIRS + 37]:
        cuts = np.sort(rng.integers(0, total + 1, rng.integers(0, 6)))
        sizes = np.diff(np.concatenate(([0], cuts, [total])))  # some cells empty
        clat = 44.98 + rng.uniform(-0.4, 0.4, sizes.size)
        clon = -93.27 + rng.uniform(-0.5, 0.5, sizes.size)
        nodes = rng.integers(0, 500, total)
        flat = _haversine_km(
            np.repeat(clat, sizes), np.repeat(clon, sizes), n_lat[nodes], n_lon[nodes]
        )
        ends = np.concatenate(([0], np.cumsum(sizes)))
        for i, (a, b) in enumerate(zip(ends, ends[1:])):
            cand = nodes[a:b]
            one = _haversine_km(float(clat[i]), float(clon[i]), n_lat[cand], n_lon[cand])
            assert (flat[a:b] == one).all(), (total, i)


def test_attach_centroid_is_np_mean_of_the_cells_users_exactly(monkeypatch):
    """Every centroid the attach measures from is ``np.mean`` over the
    cell's users, to the bit. A segmented sum is *not*: ``reduceat`` adds
    sequentially where ``mean`` adds pairwise, and the last bit moves."""
    kernel = make_kernel(nodes=150, users=6_000)
    measured_from = []
    real = kernel_module._haversine_km

    def recorded(lat1, lon1, lat2, lon2):
        measured_from.append((lat1, lon1))
        return real(lat1, lon1, lat2, lon2)

    monkeypatch.setattr(kernel_module, "_haversine_km", recorded)
    # The closing u_base pass measures from users, not centroids: keep it out.
    monkeypatch.setattr(kernel, "_base_vec", lambda users, nodes: np.zeros(users.size))
    kernel._initial_attach()
    got_lat = np.concatenate([lat for lat, _ in measured_from])
    got_lon = np.concatenate([lon for _, lon in measured_from])

    cells = np.unique(kernel.u_cell).tolist()
    members = [np.flatnonzero(kernel.u_cell == cell) for cell in cells]
    pairs = [kernel._cell_cands[cell].size for cell in cells]
    mean_lat = np.array([np.mean(kernel.u_lat[users]) for users in members])
    mean_lon = np.array([np.mean(kernel.u_lon[users]) for users in members])
    assert min(pairs) > 0 and len(cells) > 20
    assert (got_lat == np.repeat(mean_lat, pairs)).all()
    assert (got_lon == np.repeat(mean_lon, pairs)).all()

    order = np.concatenate(members)
    starts = np.concatenate(([0], np.cumsum([m.size for m in members])[:-1]))
    segmented = np.add.reduceat(kernel.u_lat[order], starts) / [m.size for m in members]
    assert (segmented != mean_lat).any()
    assert np.allclose(segmented, mean_lat, rtol=1e-14, atol=0.0)
