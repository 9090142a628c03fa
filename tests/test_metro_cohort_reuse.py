"""A quiet tick reuses the cohort; anything that moves a user does not.

``MetroKernel._advance_frames`` keeps each user's ``ok``/``lat`` from one
tick to the next and drops them on every write to ``u_node``, ``u_base``
or ``u_active``; the fleet's wait and liveness are compared by value on
every tick instead, so a direct write to ``n_load`` or ``n_alive`` is
seen too. The floored frame index at a tick's end is the next tick's
start. Each tick is held here with ``==`` to the index-array reference
in ``tests/test_metro_kernel.py``, through every kind of control activity
between ticks, and the reuse itself is counted on a quiet run.
"""

import copy
import random

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import SystemConfig
from repro.metro.kernel import MetroKernel
from repro.metro.runner import MetroSimulation, _route_outboxes
from repro.metro.spec import MetroSpec, ShardSpec, TICK_MS
from tests.test_metro_kernel import advance_indexed, shard_kernels

STATS = ("u_frames", "u_lost", "u_lat_sum", "u_lat_max")
TICKS = 16  # four boundary epochs


def counting_builds(kernel):
    """Count ``kernel``'s cohort builds in ``kernel.builds``."""
    real = kernel._build_cohort
    kernel.builds = 0

    def build(wait):
        kernel.builds += 1
        return real(wait)

    kernel._build_cohort = build


def poke(kernel, rng, kind):
    """Write the node columns directly, as no kernel method does."""
    nodes = kernel.n_gid.size
    if kind in ("load", "both"):
        hit = rng.random(nodes) < 0.2
        kernel.n_load[hit] = rng.random(int(hit.sum())) * 60.0
    if kind in ("alive", "both") and nodes:
        n = int(rng.integers(nodes))
        kernel.n_alive[n] = not kernel.n_alive[n]


def control(kernel, k, select):
    """Tick ``k``'s control step, its selection round left out unless
    ``select``: failures and detections still land on their tick."""
    if not select:
        kernel._selection_round = lambda k, t: None
    kernel._control(k)
    vars(kernel).pop("_selection_round", None)


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    fps=st.sampled_from([4.0, 10.0, 1.0 / 3.0]),
    selects=st.lists(st.booleans(), min_size=TICKS, max_size=TICKS),
    pokes=st.lists(
        st.sampled_from(["none", "none", "load", "alive", "both"]),
        min_size=TICKS, max_size=TICKS,
    ),
)
def test_every_tick_equals_the_indexed_reference_through_control_activity(
    seed, fps, selects, pokes
):
    """Selection rounds that switch users and hand them off, node
    failures and their detection, arrivals and ghost refreshes at every
    boundary epoch, and direct writes to ``n_load`` / ``n_alive``, on the
    ticks hypothesis picks. A round runs on the second tick of each epoch
    and never on the first, so arrivals meet a tick nothing else moves;
    tick 1 is left alone, so it reuses tick 0's cohort."""
    spec = MetroSpec(nodes=140, users=1_400, region_km=25.0, fps=fps,
                     shard=ShardSpec(count=4))
    config = SystemConfig(seed=seed, probing_period_ms=1_000.0, min_dwell_ms=1_000.0)
    sim = MetroSimulation(spec, config)
    chooser = random.Random(seed)
    for gid in chooser.sample(range(spec.nodes), 14):
        sim.schedule_node_fail(gid, chooser.uniform(500.0, 3_000.0))
    plan, kernels = sim.build_kernels()
    for kernel in kernels:
        counting_builds(kernel)
    rng = np.random.default_rng(seed)
    for k in range(TICKS):
        select = k % 4 == 1 or (k % 4 > 1 and selects[k])
        for kernel in kernels:
            control(kernel, k, select)
            if k != 1:
                poke(kernel, rng, pokes[k])
            reference = copy.deepcopy(kernel)
            wait = reference._node_wait()
            kernel._advance_frames(k)
            advance_indexed(reference, k * TICK_MS, (k + 1) * TICK_MS, wait)
            for column in STATS:
                got, expected = getattr(kernel, column), getattr(reference, column)
                assert (got == expected).all(), (k, column)
            assert kernel.frames_advanced == reference.frames_advanced
            kernel._tick_index = k + 1
        if (k + 1) % 4 == 0:  # a boundary epoch, as the runner exchanges it
            outboxes = [kernel.finish_epoch() for kernel in kernels]
            for kernel, inbox in zip(kernels, _route_outboxes(plan, outboxes)):
                kernel.apply_inbox(inbox)
    assert sum(kernel.switches for kernel in kernels) > 0
    assert sum(kernel.covered_failovers for kernel in kernels) > 0
    assert sum(kernel.handoffs_in for kernel in kernels) > 0
    for kernel in kernels:
        assert 1 <= kernel.builds < TICKS


def test_a_quiet_run_builds_the_cohort_once_per_shard(monkeypatch):
    """Probing off, no failures, 4 s — before the 5 s dwell lets anyone
    re-select: after t=0 nothing moves a user. One shard builds its
    cohort once. Four build theirs again only after the first boundary
    epoch, whose ghost refresh brings in the owners' loads (zero here
    until then); every later refresh writes the bits the cohort was
    read from."""
    builds = {}
    real = MetroKernel._build_cohort

    def build(self, wait):
        builds[self.shard_id] = builds.get(self.shard_id, 0) + 1
        return real(self, wait)

    monkeypatch.setattr(MetroKernel, "_build_cohort", build)
    config = SystemConfig(seed=42, probing_period_ms=3.6e6)
    for shards, per_shard in ((1, 1), (4, 2)):
        builds.clear()
        spec = MetroSpec(nodes=400, users=4_000, fps=4.0, shard=ShardSpec(count=shards))
        report = MetroSimulation(spec, config).run(4.0)
        assert report.frames_done + report.frames_lost == 4_000 * 4 * 4
        assert report.switches == report.handoffs == 0
        assert builds == {shard: per_shard for shard in builds} and len(builds) == shards


def test_cell_node_lists_are_ascending_without_a_sort():
    """``_cell_nodes`` slices one stable argsort, whose equal keys keep
    index order: every list is already sorted, and together they hold
    each node of the shard (owned and ghost) once."""
    for kernel in shard_kernels(7, 400, 4_000, 40.0, 3, 4):
        lists = kernel._cell_nodes.values()
        assert all((nodes == np.sort(nodes)).all() for nodes in lists)
        held = np.sort(np.concatenate(list(lists)))
        assert (held == np.arange(kernel.n_gid.size)).all()
