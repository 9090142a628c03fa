"""Platform-parity suite: where a run executes is invisible in its bits.

``run_sweep`` runs in this process at ``workers=1`` (the inline
reference) and in one forked child per run above that (the process
platform). Both must converge to the same ``aggregates_digest`` and the
same record order — including after a run's process is killed mid-grid
and the sweep is resumed. The kill tests use the ``selftest``
experiment's ``crash_marker`` knob (the run that creates the marker dies
hard, every later visit succeeds), which makes the kill deterministic
without any timing games. A crash or a timeout costs only the run it
hit: no other run is failed or retried for it.
"""

import time
from collections import Counter

import pytest

from repro.obs import ListSink, Tracer
from repro.sweep import (
    InlinePlatform,
    ProcessPlatform,
    RunOutcome,
    RunStore,
    SweepInterrupted,
    SweepSpec,
    aggregates_digest,
    run_sweep,
)
from repro.sweep.platform import OUTCOME_LOST, ExecutionPlatform

SPEC = SweepSpec.build("selftest", {"scale": [1.0, 2.0]}, n_seeds=3, base_seed=7)

#: ``workers`` that selects each platform.
PLATFORM_WORKERS = {"inline": 1, "process": 2}


def _digest(result):
    return aggregates_digest(result.aggregates())


def _kill_drill_spec(marker):
    return SweepSpec.build(
        "selftest",
        {"scale": [1.0, 2.0], "crash_marker": [str(marker)]},
        n_seeds=2,
        base_seed=11,
    )


# ----------------------------------------------------------------------
# The outcome and platform contract
# ----------------------------------------------------------------------
def test_outcome_terminality():
    assert RunOutcome("k", "ok").is_terminal
    assert RunOutcome("k", "failed").is_terminal
    assert not RunOutcome("k", "timeout").is_terminal
    assert not RunOutcome("k", OUTCOME_LOST).is_terminal


def test_both_platforms_satisfy_the_protocol():
    for platform in (InlinePlatform(), ProcessPlatform(2)):
        assert isinstance(platform, ExecutionPlatform)
        platform.shutdown()
    with pytest.raises(ValueError, match="workers"):
        ProcessPlatform(0)


def test_subprocess_platform_rejects_submit_after_shutdown():
    platform = ProcessPlatform(workers=1)
    platform.shutdown()
    with pytest.raises(RuntimeError, match="shut down"):
        platform.submit(SPEC.expand()[0])


# ----------------------------------------------------------------------
# Cross-platform bit-identity
# ----------------------------------------------------------------------
def test_all_platforms_produce_identical_digests(tmp_path):
    digests = {}
    for name, workers in PLATFORM_WORKERS.items():
        result = run_sweep(SPEC, RunStore(tmp_path / name), workers=workers)
        assert result.executed == 6 and result.failed == 0
        assert result.platform == name
        digests[name] = _digest(result)
    assert len(set(digests.values())) == 1, digests


def test_platform_records_keep_expansion_order(tmp_path):
    expected = [r.run_key for r in SPEC.expand()]
    for name, workers in PLATFORM_WORKERS.items():
        result = run_sweep(SPEC, RunStore(tmp_path / name), workers=workers)
        assert [r.run_key for r in result.records] == expected


def test_failure_containment_on_every_platform(tmp_path):
    spec = SweepSpec.build(
        "selftest", {"scale": [1.0], "fail": [0, 1]}, n_seeds=2, base_seed=3
    )
    for name, workers in PLATFORM_WORKERS.items():
        result = run_sweep(spec, RunStore(tmp_path / name), workers=workers)
        assert result.executed == 4 and result.failed == 2
        assert result.retried == 0  # an experiment error is not a loss
        by_status = Counter(r.status for r in result.records)
        assert by_status == {"ok": 2, "failed": 2}
        failed = [r for r in result.records if not r.ok]
        assert all("asked to fail" in r.error for r in failed)


def test_unknown_experiment_is_contained_on_every_platform():
    spec = SweepSpec.build("no_such_experiment", {"a": [1]})
    for workers in PLATFORM_WORKERS.values():
        result = run_sweep(spec, None, workers=workers)
        assert result.failed == 1 and result.retried == 0
        assert "unknown sweepable experiment" in result.records[0].error


# ----------------------------------------------------------------------
# A killed run's process: retry, resume, and nobody else pays
# ----------------------------------------------------------------------
def test_subprocess_worker_kill_requeues_and_matches_uninterrupted(tmp_path):
    """The run whose child dies is retried and succeeds; its neighbours
    finish at their first attempt."""
    marker = tmp_path / "crash.marker"
    spec = _kill_drill_spec(marker)

    # Uninterrupted baseline: marker pre-exists, nothing crashes.
    marker.write_text("pre-existing\n")
    baseline = run_sweep(spec, RunStore(tmp_path / "base"))
    assert baseline.failed == 0

    marker.unlink()
    sink = ListSink()
    result = run_sweep(
        spec, RunStore(tmp_path / "killed"), workers=2, tracer=Tracer(sink=sink)
    )
    assert result.executed == 4 and result.failed == 0
    assert result.retried >= 1
    assert Counter(e.type for e in sink.events)["sweep_run_retried"] == result.retried
    assert sorted(r.attempts for r in result.records) == [1, 1, 1, 2]
    assert _digest(result) == _digest(baseline)


def test_subprocess_interrupt_then_resume_matches_uninterrupted(tmp_path):
    uninterrupted = run_sweep(SPEC, RunStore(tmp_path / "full"), workers=2)

    store = RunStore(tmp_path / "resumed")
    with pytest.raises(SweepInterrupted):
        run_sweep(SPEC, store, workers=2, limit=2)
    assert len(store) == 2

    resumed = run_sweep(SPEC, store, workers=2)
    # The resume executes exactly the missing runs...
    assert resumed.skipped == 2 and resumed.executed == 4
    # ...and converges to the uninterrupted digest.
    assert _digest(resumed) == _digest(uninterrupted)


def test_subprocess_kill_mid_grid_then_resume(tmp_path):
    marker = tmp_path / "crash.marker"
    spec = _kill_drill_spec(marker)
    marker.write_text("no crashes in the baseline\n")
    baseline = run_sweep(spec, RunStore(tmp_path / "base"))

    # Interrupt after 1 run with the crash armed: one run's process dies
    # along the way, then the limit stops the sweep.
    marker.unlink()
    store = RunStore(tmp_path / "killed")
    with pytest.raises(SweepInterrupted):
        run_sweep(spec, store, workers=2, limit=1)

    # The crashed run was retried within the limit, so the store holds
    # exactly one success; the resume executes exactly the missing three.
    assert len(store.completed_keys()) == 1
    resumed = run_sweep(spec, store, workers=2)
    assert resumed.skipped == 1 and resumed.executed == 3
    assert resumed.failed == 0
    assert _digest(resumed) == _digest(baseline)


@pytest.mark.parametrize("seeds", [2, 4, 8])
def test_a_crashing_run_costs_only_its_own_attempts(tmp_path, seeds):
    """Every ``crash=1`` run kills its process on every attempt, beside
    healthy runs still sleeping in theirs. The crashing runs are recorded
    failed after their own two attempts; every healthy run is ``ok`` at
    its first."""
    spec = SweepSpec.build(
        "selftest", {"crash": [1, 0], "sleep_s": [0.2]}, n_seeds=seeds, base_seed=5
    )
    result = run_sweep(spec, RunStore(tmp_path / "s"), workers=2, retries=1)
    assert result.executed == 2 * seeds
    by_crash = {
        crash: Counter((r.status, r.attempts) for r in result.records if r.params["crash"] == crash)
        for crash in (0, 1)
    }
    assert by_crash[0] == {("ok", 1): seeds}
    assert by_crash[1] == {("failed", 2): seeds}
    assert result.retried == seeds


def test_a_timeout_costs_only_the_run_that_timed_out(tmp_path):
    spec = SweepSpec.build("selftest", {"sleep_s": [0.3, 30.0]}, n_seeds=1)
    started = time.monotonic()
    result = run_sweep(
        spec, RunStore(tmp_path / "s"), workers=2, timeout_s=1.0, retries=1
    )
    # Two 1 s attempts, each child killed at its deadline — not 30 s.
    assert time.monotonic() - started < 10.0
    outcomes = {r.params["sleep_s"]: (r.status, r.attempts) for r in result.records}
    assert outcomes == {0.3: ("ok", 1), 30.0: ("timeout", 2)}
    assert result.retried == 1
