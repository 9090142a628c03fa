"""The metro control path pays numpy only for arrays.

A control operation that touches one user or two nodes is scalar
arithmetic (``_wait_at``); one that touches a batch is one numpy pass
(``apply_inbox``'s direct arrivals, ``finish_epoch``'s export, a
detection's covered failovers). Each is
held here with ``==`` to the form it replaced, kept below as the
reference, and the numpy entry points of a ``metro_reselect``-shaped run
are counted — counts repeat exactly where timings do not.
"""

import copy
import random

import numpy as np
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.core.config import SystemConfig
from repro.metro.kernel import (
    _RHO_CAP,
    MetroKernel,
    MigrationRecord,
    ShardOutbox,
)
from repro.metro.runner import MetroSimulation, _route_outboxes
from repro.metro.spec import MetroSpec, ShardSpec, build_population
from repro.obs.events import JoinAccept, ShardHandoff
from repro.obs.tracer import Tracer

USER_COLUMNS = (
    "u_gid", "u_slot", "u_lat", "u_lon", "u_phase", "u_cell", "u_node", "u_base",
    "u_active", "u_join_ms", "u_backup", "u_pending", "u_frames", "u_lost",
    "u_lat_sum", "u_lat_max",
)


# ----------------------------------------------------------------------
# Scalar wait refresh
# ----------------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(
    service=st.floats(min_value=0.25, max_value=400.0),
    users=st.integers(min_value=0, max_value=4_000),
    fps=st.sampled_from([4.0, 10.0, 0.1, 1.0 / 3.0, 29.97, 7.3]),
    nudge=st.sampled_from([0.0, 0.0, 1e-9, -1e-9, 0.37]),
)
@example(service=25.0, users=38, fps=1.0, nudge=0.0)  # rho == _RHO_CAP exactly
@example(service=25.0, users=0, fps=4.0, nudge=0.0)  # zero load
@example(service=25.0, users=400, fps=4.0, nudge=0.0)  # far beyond the cap
@example(service=1000.0 / 3.0, users=3, fps=0.95, nudge=0.0)
def test_scalar_wait_equals_the_vector_wait_of_one_node(service, users, fps, nudge):
    """``_wait_at(n)`` is ``_node_wait(np.array([n]))[0]`` to the bit:
    load built by repeated ``+= fps`` as ``_attach`` builds it (non-dyadic
    rates included), rho below, at and beyond the cap."""
    kernel = tiny_kernel()
    kernel.n_service[1] = service
    for _ in range(min(users, 50)):
        kernel.n_load[1] += fps
    kernel.n_load[1] += max(users - 50, 0) * fps + nudge
    kernel.n_load[1] = max(kernel.n_load[1], 0.0)
    scalar = kernel._wait_at(1)
    assert type(scalar) is float
    assert scalar == kernel._node_wait(np.array([1]))[0] == kernel._node_wait()[1]
    rho = kernel.n_load[1] * service / 1000.0
    assert (scalar == service * _RHO_CAP / (2.0 * (1.0 - _RHO_CAP))) == (rho >= _RHO_CAP)


def test_rho_exactly_at_the_cap_is_a_case_the_property_covers():
    assert 38.0 * 25.0 / 1000.0 == _RHO_CAP


def tiny_kernel():
    config = SystemConfig(seed=3)
    spec = MetroSpec(nodes=4, users=8, region_km=5.0)
    return MetroKernel(config, spec, build_population(spec, config.seed))


# ----------------------------------------------------------------------
# The boundary channel in whole-batch form, held to the per-user forms
# ----------------------------------------------------------------------
def finish_epoch_per_user(self):
    """Reference: the export one migrating user at a time — ~18 numpy
    scalar reads and writes each (the kernel's form until the columns
    were gathered with one fancy index)."""
    exported = self._export_local
    state = zip(self.n_load[exported].tolist(), self.n_alive[exported].tolist())
    out = ShardOutbox(
        shard_id=self.shard_id, exports=dict(zip(self._export_gids, state))
    )
    for u in sorted(self._pending_handoffs, key=lambda i: int(self.u_gid[i])):
        ghost_local = int(self.u_pending[u])
        out.migrations.append(
            MigrationRecord(
                user_gid=int(self.u_gid[u]),
                target_gid=int(self.n_gid[ghost_local]),
                from_shard=self.shard_id,
                lat=float(self.u_lat[u]),
                lon=float(self.u_lon[u]),
                phase_ms=float(self.u_phase[u]),
                cell=int(self.u_cell[u]),
                frames_done=int(self.u_frames[u]),
                frames_lost=int(self.u_lost[u]),
                latency_sum_ms=float(self.u_lat_sum[u]),
                latency_max_ms=float(self.u_lat_max[u]),
            )
        )
        cur = int(self.u_node[u])
        if cur >= 0:
            self.n_load[cur] -= self.fps
        self.u_node[u] = -1
        self.u_active[u] = False
        self.u_pending[u] = -1
        self.u_frames[u] = 0
        self.u_lost[u] = 0
        self.u_lat_sum[u] = 0.0
        self.u_lat_max[u] = 0.0
        self.handoffs_out += 1
    self._pending_handoffs.clear()
    return out


def apply_inbox_one_at_a_time(self, inbox):
    """Reference: arrivals admitted one by one, each scoring its handoff
    target with a ``_base_vec`` pass over one (user, node) pair; then each
    arrival that could not attach, detached, joins its best live candidate
    (the first minimum of its own base plus a fresh fleet wait; a ghost is
    a handoff) and adopts the rest of that ranking as backups."""
    for gid in sorted(inbox.ghost_updates):
        local = self._node_local.get(gid)
        if local is None or not self.n_ghost[local]:
            continue
        self.n_load[local], self.n_alive[local] = inbox.ghost_updates[gid]
    if not inbox.migrations:
        return
    arrivals = sorted(inbox.migrations, key=lambda r: r.user_gid)
    first = self.u_gid.size
    self._append_users(arrivals)
    detached = []
    for u, record in enumerate(arrivals, first):
        self.handoffs_in += 1
        self.control_ops += 1
        me = np.array([u], dtype=np.int64)
        target = self._node_local.get(record.target_gid)
        if target is None or not self.n_alive[target] or self.n_ghost[target]:
            detached.append(me)
            continue
        base = self._base_vec(me, np.array([target], dtype=np.int64))[0]
        self._attach(u, target, base)
        self.trace.emit(
            JoinAccept(self.now_ms, self._user_name(u), self._node_name(target))
        )
    spare = self.u_backup.shape[1]
    for me in detached:
        u, cell = int(me[0]), self.u_cell.item(me[0])
        if cell not in self._cell_cands:
            self._fill_cell_cands(np.array([cell], dtype=np.uint64))
        live = self._cell_cands[cell][self.n_alive[self._cell_cands[cell]]]
        if live.size == 0:
            continue
        base = self._base_vec(np.repeat(me, live.size), live)
        order = np.argsort(base + self._node_wait()[live], kind="stable")
        best = int(live[order[0]])
        backups = live[order[1 : spare + 1]].tolist()
        self.u_backup[u] = backups + [-1] * (spare - len(backups))
        user, to = self._user_name(u), self._node_name(best)
        if self.n_ghost[best]:
            self.u_pending[u] = best
            self._pending_handoffs.append(u)
            owner = self._ghost_shard[best]
            self.trace.emit(ShardHandoff(self.now_ms, user, self.shard_id, owner, to))
        else:
            self._attach(u, best, base[order[0]])
            self.trace.emit(JoinAccept(self.now_ms, user, to))


def shards_with_migrants_waiting(seed, fps, shards=4):
    """Traced shard kernels of a re-selecting, failing metro, stepped to
    the first epoch boundary at which users wait to cross; with the plan."""
    spec = MetroSpec(nodes=140, users=1_400, region_km=25.0, fps=fps,
                     shard=ShardSpec(count=shards))
    config = SystemConfig(seed=seed, probing_period_ms=1_000.0, min_dwell_ms=1_000.0)
    sim = MetroSimulation(spec, config, capture_trace=True)
    rng = random.Random(seed)
    for gid in rng.sample(range(spec.nodes), 14):
        sim.schedule_node_fail(gid, rng.uniform(250.0, 2_000.0))
    plan, kernels = sim.build_kernels()
    for t_ms in (1_000.0, 2_000.0, 3_000.0):
        for kernel in kernels:
            kernel.step_to(t_ms)
        if sum(len(kernel._pending_handoffs) for kernel in kernels) >= 8:
            return plan, kernels
        outboxes = [kernel.finish_epoch() for kernel in kernels]
        for kernel, inbox in zip(kernels, _route_outboxes(plan, outboxes)):
            kernel.apply_inbox(inbox)
    raise AssertionError("no handoff in three epochs: the scenario lost its point")


def assert_same_kernel_state(kernel, reference):
    for column in USER_COLUMNS + ("n_load", "n_alive"):
        got, expected = getattr(kernel, column), getattr(reference, column)
        assert got.dtype == expected.dtype and (got == expected).all(), column
    for counter in ("handoffs_in", "handoffs_out", "control_ops", "switches",
                    "covered_failovers", "uncovered_failures"):
        assert getattr(kernel, counter) == getattr(reference, counter), counter
    assert kernel._pending_handoffs == reference._pending_handoffs
    assert kernel.trace.events() == reference.trace.events()


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    fps=st.sampled_from([4.0, 10.0, 1.0 / 3.0]),
    orphaned=st.sampled_from([0.0, 0.3]),
)
def test_whole_batch_export_equals_the_per_user_reference(seed, fps, orphaned):
    """Same outbox — records in gid order, plain ints and floats — and
    the same zeroed columns, loads and counters; users whose node died
    under them while they waited (``u_node == -1``) included."""
    _, kernels = shards_with_migrants_waiting(seed, fps)
    rng = np.random.default_rng(seed)
    exported = 0
    for kernel in kernels:
        waiting = np.array(kernel._pending_handoffs, dtype=np.int64)
        kernel.u_node[waiting[rng.random(waiting.size) < orphaned]] = -1
        reference = copy.deepcopy(kernel)
        out, expected = kernel.finish_epoch(), finish_epoch_per_user(reference)
        assert out == expected
        assert [r.user_gid for r in out.migrations] == sorted(
            r.user_gid for r in out.migrations)
        for record in out.migrations:
            kinds = [type(value) for value in vars(record).values()]
            assert kinds == [int, int, str, float, float, float, int, int, int, float, float]
        assert_same_kernel_state(kernel, reference)
        assert not kernel.u_active[waiting].any()
        exported += len(out.migrations)
        # Nothing waits now: the next export is empty and moves nothing.
        assert kernel.finish_epoch().migrations == []
        assert_same_kernel_state(kernel, reference)
    assert exported >= 8


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    fps=st.sampled_from([4.0, 10.0, 1.0 / 3.0]),
    dead=st.sampled_from([0.0, 0.3, 1.0]),
    astray=st.sampled_from([0.0, 0.3]),
)
def test_batched_inbox_equals_one_migrant_at_a_time(seed, fps, dead, astray):
    """Same user columns, ``n_load``, counters, pending handoffs and the
    same ordered JoinAccept / ShardHandoff trace — with targets that died
    in transit, targets that are only a ghost here and targets this shard
    never heard of re-selecting after the direct arrivals, each at the
    loads the arrivals before it left, in one pass."""
    plan, kernels = shards_with_migrants_waiting(seed, fps)
    outboxes = [kernel.finish_epoch() for kernel in kernels]
    rng = np.random.default_rng(seed)
    admitted = fallbacks = 0
    for kernel, inbox in zip(kernels, _route_outboxes(plan, outboxes)):
        owned = np.flatnonzero(~kernel.n_ghost)
        ghosts = kernel.n_gid[kernel.n_ghost].tolist()
        kernel.n_alive[owned[rng.random(owned.size) < dead]] = False
        for record in inbox.migrations:
            if rng.random() < astray:
                record.target_gid = int(rng.choice(ghosts)) if ghosts else 10**9
            if rng.random() < astray / 4:
                record.target_gid = 10**9
        reference = copy.deepcopy(kernel)
        scored = []
        real = kernel._base_vec
        kernel._base_vec = lambda users, nodes: scored.append(users.size) or real(users, nodes)
        before = kernel.control_ops
        kernel.apply_inbox(inbox)
        apply_inbox_one_at_a_time(reference, copy.deepcopy(inbox))
        del kernel._base_vec
        assert_same_kernel_state(kernel, reference)
        assert kernel.control_ops - before == len(inbox.migrations)
        if inbox.migrations:
            direct = scored[0]  # the one flat pass: every direct arrival
            fallbacks += len(inbox.migrations) - direct
            # ...and one re-selection pass for the rest.
            assert len(scored) == 1 + (len(inbox.migrations) > direct)
        admitted += len(inbox.migrations)
    assert admitted >= 8
    if dead == 1.0:
        assert fallbacks == admitted


# ----------------------------------------------------------------------
# Numpy entry points of a metro_reselect-shaped run, counted
# ----------------------------------------------------------------------
def test_control_path_call_budget_on_a_reselect_shaped_run(monkeypatch):
    """The perf ledger's ``metro_reselect`` at smoke size (4 shards, 5 s
    probing, 1 % of nodes fail, 10 sim-s). The wait is derived

    - for a *subset* of nodes only by the t=0 attach, once per occupied
      cell — a moved user refreshes its one or two nodes in scalar
      arithmetic, where it used to make a vector call over two elements;
    - for the whole fleet once per tick per shard by frame advancement,
      and at most once per ``_reselect`` pass: at most one selection
      round per tick per shard, one per detection that left a user
      uncovered, one per inbox with an arrival that could not attach. A
      covered failover walks its backups and scores nothing.

    And an inbox scores its direct arrivals with one ``_base_vec`` pass
    and the rest with one re-selection pass, not one per arrival."""
    nodes, users, shards, sim_s, seed = 150, 1_500, 4, 10.0, 42
    spec = MetroSpec(nodes=nodes, users=users, fps=4.0,
                     shard=ShardSpec(count=shards, workers=1))
    sim = MetroSimulation(spec, SystemConfig(seed=seed, probing_period_ms=5_000.0))
    rng = random.Random(seed)
    failing = rng.sample(range(nodes), int(nodes * 0.01))
    for gid in failing:
        sim.schedule_node_fail(gid, rng.uniform(1_000.0, sim_s * 1000.0 - 1_000.0))

    calls = {"subset": 0, "fleet": 0, "scalar": 0, "attach": 0}
    #: Non-empty ``_reselect`` passes and the users they scored, per caller.
    passes = {"_selection_round": 0, "_detect_failure": 0, "apply_inbox": 0}
    rescored = dict.fromkeys(passes, 0)
    inbox_passes, caller = [], []
    names = ("_node_wait", "_wait_at", "_attach", "_base_vec", "_reselect", *passes)
    real = {name: getattr(MetroKernel, name) for name in names}

    def node_wait(self, nodes=None):
        calls["fleet" if nodes is None else "subset"] += 1
        return real["_node_wait"](self, nodes)

    def wait_at(self, n):
        calls["scalar"] += 1
        return real["_wait_at"](self, n)

    def attach(self, u, n, base):
        calls["attach"] += 1
        return real["_attach"](self, u, n, base)

    def base_vec(self, users, nodes):
        if inbox_passes and inbox_passes[-1]["open"]:
            inbox_passes[-1]["base_vec"] += 1
        return real["_base_vec"](self, users, nodes)

    def reselect(self, users, t):
        if users.size:
            passes[caller[-1]] += 1
            rescored[caller[-1]] += users.size
            if caller[-1] == "apply_inbox":
                inbox_passes[-1]["fallbacks"] += users.size
        return real["_reselect"](self, users, t)

    def called_from(name):
        def run(self, *args):
            if name == "apply_inbox":
                inbox_passes.append({"open": True, "base_vec": 0, "fallbacks": 0,
                                     "arrivals": len(args[0].migrations)})
            caller.append(name)
            real[name](self, *args)
            caller.pop()
            if name == "apply_inbox":
                inbox_passes[-1]["open"] = False
        return run

    patched = {"_node_wait": node_wait, "_wait_at": wait_at, "_attach": attach,
               "_base_vec": base_vec, "_reselect": reselect}
    for name in names:
        monkeypatch.setattr(MetroKernel, name, patched.get(name) or called_from(name))

    plan, kernels = sim.build_kernels()
    cells = sum(np.unique(kernel.u_cell).size for kernel in kernels)
    monkeypatch.setattr(MetroSimulation, "build_kernels", lambda self: (plan, kernels))
    report = sim.run(sim_s)

    ticks = int(sim_s * 1000.0 / 250.0)
    assert report.switches > 100 and report.handoffs > 20  # the round did run
    assert report.covered_failovers > 0
    assert 0 < calls["subset"] <= cells
    # A pass in which no user has a candidate returns before the wait.
    assert ticks * shards < calls["fleet"] <= ticks * shards + sum(passes.values())
    assert passes["_selection_round"] <= (ticks - 1) * shards
    assert passes["_detect_failure"] <= len(failing)
    assert rescored["_detect_failure"] <= report.uncovered_failures
    # Two nodes per switch, one per detached user's join; none per failover.
    assert calls["scalar"] == calls["attach"] + report.switches
    assert calls["attach"] - report.switches <= sum(rescored.values())
    busy = [p for p in inbox_passes if p["arrivals"]]
    assert passes["apply_inbox"] <= len(busy)
    assert sum(p["arrivals"] for p in busy) == report.handoffs
    for p in inbox_passes:
        assert p["base_vec"] == (1 if p["arrivals"] else 0) + (p["fallbacks"] > 0)
    assert sum(p["base_vec"] for p in busy) < report.handoffs / 4


# ----------------------------------------------------------------------
# Events are built only for someone
# ----------------------------------------------------------------------
CONTROL_EVENTS = ("node_fail", "switch", "covered_failover", "uncovered_failure")


def failing_kernel(tracer):
    config = SystemConfig(seed=5, probing_period_ms=1_000.0, min_dwell_ms=1_000.0)
    spec = MetroSpec(nodes=60, users=900, region_km=20.0, fps=10.0)
    kernel = MetroKernel(config, spec, build_population(spec, config.seed), tracer=tracer)
    for gid in range(0, 60, 4):
        kernel.schedule_node_fail(gid, 300.0 + 100.0 * gid)
    return kernel


def test_a_subscriber_alone_still_receives_every_control_event():
    """Capture off, one reducer subscribed: ``Tracer.listening`` is true,
    so the reducer sees the control events a capturing tracer records, in
    order — and the run's counters do not depend on who listens."""
    captured = failing_kernel(Tracer(enabled=True, capacity=1 << 20))
    heard, reduced_tracer = [], Tracer.disabled()
    reduced_tracer.subscribe(heard.append)
    reduced = failing_kernel(reduced_tracer)
    silent = failing_kernel(None)
    reports = [kernel.run(8.0) for kernel in (captured, reduced, silent)]
    expected = captured.trace.events(*CONTROL_EVENTS)
    assert [e for e in heard if e.type in CONTROL_EVENTS] == expected
    assert {e.type for e in expected} == set(CONTROL_EVENTS)
    assert reduced.trace.events() == []
    for report in reports[1:]:
        for counter in ("frames_done", "frames_lost", "switches", "covered_failovers",
                        "uncovered_failures", "control_ops", "latency_sum_ms"):
            assert getattr(report, counter) == getattr(reports[0], counter), counter


def test_nobody_listening_builds_no_event_and_no_name(monkeypatch):
    kernel = failing_kernel(None)
    assert not kernel.trace.listening

    def refuse(self, local):
        raise AssertionError("an entity name was formatted for nobody")

    monkeypatch.setattr(MetroKernel, "_node_name", refuse)
    monkeypatch.setattr(MetroKernel, "_user_name", refuse)
    report = kernel.run(8.0)
    assert report.switches and report.covered_failovers and report.uncovered_failures
