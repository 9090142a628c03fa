"""The metro kernel's memory at the perf ledger's ``metro_cohort`` size:
what a user holds while resident, and what the cohort path allocates on
top of it.

``metro_cohort`` gates ``peak_rss_mb`` at 5 %, and its high-water mark is
the resident per-user state plus the largest set of temporaries alive at
once on top of it.

Resident: every ``u_*`` column of the kernel, plus any per-user array of
the ``ShardPlan`` that the kernel does not share. Each column is at the
narrowest width that holds its values (DESIGN §11): gids, slots, pending
handoffs and frame counts are int32, ``u_node`` stays intp, every float
stays float64. That is 101 B/user at ``top_n=3``; int64 integer columns,
a copied gid column and the plan's unread ``user_shard`` made it 137. The
int32 contract is checked up front: ``MetroSpec`` refuses ``users >=
2**31`` and ``step_to`` a target whose frame index would reach int32's
end.

Transient: before the t=0 attach went to flat passes, the largest set of
temporaries was the cohort advance (``_advance_frames``): its index
arrays and the ten gathered columns peaked 8.5 MB over resident on every
tick, the per-cell attach 4.1 MB. Both now have to stay under that
figure: the attach because its flat passes hold at most
``_SCORE_CHUNK_PAIRS`` pairs and its whole-user temporaries are dropped
before the first pass (one pass over all 87 000 pairs measured 16.5 MB,
the former cap of ``1 << 16`` 10.2 MB, ``1 << 14`` 4.4 MB), the advance
because mask form holds no index arrays.

``python tests/test_metro_memory_budget.py`` prints the three figures.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.config import SystemConfig
from repro.metro.kernel import MetroKernel
from repro.metro.runner import MetroSimulation
from repro.metro.spec import INT32_LIMIT, MetroSpec, ShardSpec, build_population

#: MB over resident: just under the index-form advance's 8.47 at this size.
BUDGET_MB = 8.4
#: Resident bytes per user at ``top_n=3``.
RESIDENT_BUDGET_B = 101
#: The columns whose values ``INT32_LIMIT`` bounds.
INT32_COLUMNS = ("u_gid", "u_slot", "u_pending", "u_frames", "u_lost", "_floor_hi")

CONFIG = SystemConfig(seed=42, probing_period_ms=3.6e6)
SPEC = MetroSpec(nodes=10_000, users=100_000, fps=4.0)


def peaks_over_resident_mb():
    """(attach, advance): the most each call held beyond what was
    allocated when it was entered, at ``metro_cohort``'s size."""
    kernel = MetroKernel(CONFIG, SPEC, build_population(SPEC, CONFIG.seed))

    def peak(call, *args):
        tracemalloc.reset_peak()
        resident = tracemalloc.get_traced_memory()[0]
        call(*args)
        return (tracemalloc.get_traced_memory()[1] - resident) / 1e6

    tracemalloc.start()
    try:
        attach = peak(kernel._initial_attach)
        advance = peak(kernel._advance_frames, 0)
    finally:
        tracemalloc.stop()
    assert kernel.unattached_initial == 0 and kernel.frames_advanced == 100_000
    return attach, advance


def resident_columns():
    """Name -> array of the per-user state one ``metro_cohort`` shard keeps
    resident, after its first tick: the kernel's ``u_*`` columns and the
    plan's per-user arrays the kernel does not share."""
    plan, (kernel,) = MetroSimulation(SPEC, CONFIG).build_kernels()
    kernel.step_to(250.0)
    columns = {name: c for name, c in vars(kernel).items() if name.startswith("u_")}
    for name, value in vars(plan).items():
        if name.startswith("user_"):
            for g, array in enumerate(value if isinstance(value, list) else [value]):
                if not any(np.shares_memory(array, c) for c in columns.values()):
                    columns[f"plan.{name}[{g}]"] = array
    return kernel, columns


def resident_bytes_per_user():
    _, columns = resident_columns()
    return sum(c.nbytes for c in columns.values()) / SPEC.users


def test_cohort_path_temporaries_stay_under_the_index_form_advances_peak():
    attach, advance = peaks_over_resident_mb()
    assert 0.0 < attach < BUDGET_MB
    assert 0.0 < advance < BUDGET_MB


def test_resident_state_per_user_is_within_budget_at_its_exact_width():
    kernel, columns = resident_columns()
    assert CONFIG.top_n == 3
    for name in INT32_COLUMNS:
        assert getattr(kernel, name).dtype == np.int32, name
        assert getattr(kernel, name).size == SPEC.users, name
    assert kernel.u_node.dtype == np.intp  # a narrower index is cast per gather
    assert all(
        c.dtype == np.float64 for c in columns.values() if c.dtype.kind == "f"
    )
    assert [name for name in columns if name.startswith("plan.")] == []
    per_user = sum(c.nbytes for c in columns.values()) / SPEC.users
    assert per_user <= RESIDENT_BUDGET_B, {n: c.dtype.str for n, c in columns.items()}


def test_arrivals_keep_every_user_column_at_its_width():
    """``_append_users`` grows each column by concatenation, which would
    widen it to an arrival's wider dtype; a handoff must not."""
    spec = MetroSpec(nodes=600, users=2_000, region_km=20.0, fps=10.0,
                     shard=ShardSpec(count=2))
    config = SystemConfig(seed=5, probing_period_ms=2_000.0, min_dwell_ms=1_000.0)
    sim = MetroSimulation(spec, config)
    plan, kernels = sim.build_kernels()
    widths = [{n: c.dtype for n, c in vars(k).items() if n.startswith("u_")} for k in kernels]
    sim._run_serial(plan, kernels, [1_000.0 * (e + 1) for e in range(6)])
    assert all(kernel.handoffs_in for kernel in kernels)
    for kernel, width in zip(kernels, widths):
        assert {n: c.dtype for n, c in vars(kernel).items() if n.startswith("u_")} == width
        assert kernel._floor_hi.dtype == np.int32


def test_a_spec_past_int32_users_is_refused():
    with pytest.raises(ValueError, match="users"):
        MetroSpec(nodes=1, users=INT32_LIMIT)
    MetroSpec(nodes=1, users=INT32_LIMIT - 1)  # the last that fits: no array yet


def test_a_step_past_the_int32_frame_index_is_refused_before_any_tick(monkeypatch):
    spec = MetroSpec(nodes=2, users=3, fps=4.0)  # one frame per 250 ms tick
    kernel = MetroKernel(CONFIG, spec, build_population(spec, CONFIG.seed))

    def tick(k):  # without the check, a run of 2**31 ticks: fail at once
        raise AssertionError(f"tick {k} ran")

    monkeypatch.setattr(kernel, "_control", tick)
    for frames in (INT32_LIMIT - 1, INT32_LIMIT, 10 * INT32_LIMIT):
        with pytest.raises(ValueError, match="int32"):
            kernel.step_to(frames * spec.interval_ms)
    with pytest.raises(ValueError, match="int32"):
        kernel.run(INT32_LIMIT * spec.interval_ms / 1000.0)
    assert kernel.now_ms == 0.0 and kernel.frames_advanced == 0


def test_a_probing_period_past_int32_ticks_leaves_each_gid_its_own_slot():
    spec = MetroSpec(nodes=2, users=3, fps=4.0)
    config = SystemConfig(seed=5, probing_period_ms=1e12)  # 4e9 ticks
    kernel = MetroKernel(config, spec, build_population(spec, config.seed))
    assert kernel.u_slot.dtype == np.int32 and kernel.u_slot.tolist() == [0, 1, 2]
    assert kernel.run(1.0).frames_advanced == 3 * 4


if __name__ == "__main__":
    print("attach +%.1f MB, advance +%.1f MB over resident" % peaks_over_resident_mb())
    print("resident %.1f B/user" % resident_bytes_per_user())
