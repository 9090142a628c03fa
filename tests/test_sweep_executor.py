"""Executor tests: serial/parallel parity, caching, failure containment.

The parallel tests use the ``selftest`` experiment's ``fail``/``crash``/
``sleep_s`` knobs; they are kept tiny (2 workers, a handful of runs)
so the whole module stays fast.
"""

from collections import Counter

import pytest

from repro.obs import ListSink, Tracer
from repro.sweep import (
    RunStore,
    SweepInterrupted,
    SweepSpec,
    aggregates_digest,
    run_sweep,
)

SPEC = SweepSpec.build("selftest", {"scale": [1.0, 2.0]}, n_seeds=3, base_seed=7)


def _tracer():
    return Tracer(sink=ListSink())


# ----------------------------------------------------------------------
# Basics + determinism
# ----------------------------------------------------------------------
def test_serial_runs_everything_in_order(tmp_path):
    result = run_sweep(SPEC, RunStore(tmp_path / "s"))
    assert result.executed == 6 and result.skipped == 0 and result.failed == 0
    assert [r.run_key for r in result.records] == [
        r.run_key for r in SPEC.expand()
    ]


def test_store_is_optional():
    result = run_sweep(SPEC, None)
    assert result.executed == 6
    assert all(r.ok for r in result.records)


def test_parallel_matches_serial_bit_identically(tmp_path):
    serial = run_sweep(SPEC, RunStore(tmp_path / "a"))
    parallel = run_sweep(SPEC, RunStore(tmp_path / "b"), workers=2)
    assert [r.run_key for r in parallel.records] == [
        r.run_key for r in serial.records
    ]
    assert [r.metrics for r in parallel.records] == [
        r.metrics for r in serial.records
    ]
    assert aggregates_digest(parallel.aggregates()) == aggregates_digest(
        serial.aggregates()
    )


def test_resume_skips_completed_runs(tmp_path):
    store = RunStore(tmp_path / "s")
    first = run_sweep(SPEC, store)
    again = run_sweep(SPEC, store)
    assert again.executed == 0
    assert again.skipped == 6
    assert aggregates_digest(again.aggregates()) == aggregates_digest(
        first.aggregates()
    )


def test_limit_interrupts_then_resumes(tmp_path):
    store = RunStore(tmp_path / "s")
    with pytest.raises(SweepInterrupted):
        run_sweep(SPEC, store, limit=2)
    assert len(store.completed_keys()) == 2
    finish = run_sweep(SPEC, store)
    assert finish.executed == 4 and finish.skipped == 2


def test_invalid_arguments_rejected():
    with pytest.raises(ValueError):
        run_sweep(SPEC, None, workers=0)
    with pytest.raises(ValueError):
        run_sweep(SPEC, None, retries=-1)
    with pytest.raises(ValueError):
        run_sweep(SPEC, None, limit=-1)


# ----------------------------------------------------------------------
# Failure containment
# ----------------------------------------------------------------------
def test_experiment_exception_recorded_not_raised(tmp_path):
    spec = SweepSpec.build("selftest", {"fail": [0, 1]}, n_seeds=2)
    result = run_sweep(spec, RunStore(tmp_path / "s"))
    assert result.executed == 4 and result.failed == 2
    by_status = Counter(r.status for r in result.records)
    assert by_status == {"ok": 2, "failed": 2}
    failed = [r for r in result.records if not r.ok]
    assert all("selftest experiment asked to fail" in r.error for r in failed)


def test_failed_runs_are_reexecuted_on_resume(tmp_path):
    store = RunStore(tmp_path / "s")
    spec = SweepSpec.build("selftest", {"fail": [0, 1]}, n_seeds=1)
    run_sweep(spec, store)
    assert len(store.completed_keys()) == 1
    again = run_sweep(spec, store)
    assert again.executed == 1  # only the failed one re-ran
    assert again.skipped == 1


def test_worker_crash_is_contained_and_retried(tmp_path):
    spec = SweepSpec.build("selftest", {"crash": [0, 1]}, n_seeds=2)
    result = run_sweep(spec, RunStore(tmp_path / "s"), workers=2, retries=1)
    assert result.executed == 4
    statuses = {
        (r.params["crash"], r.status) for r in result.records
    }
    assert statuses == {(0, "ok"), (1, "failed")}
    assert result.retried >= 1
    crashed = [r for r in result.records if r.params["crash"] == 1]
    assert all(r.attempts == 2 for r in crashed)  # retried once, then lost


def test_timeout_recorded_and_others_survive(tmp_path):
    spec = SweepSpec.build("selftest", {"sleep_s": [0.0, 30.0]}, n_seeds=1)
    result = run_sweep(
        spec, RunStore(tmp_path / "s"), workers=2, timeout_s=1.0, retries=0
    )
    statuses = {(r.params["sleep_s"], r.status) for r in result.records}
    assert statuses == {(0.0, "ok"), (30.0, "timeout")}


def test_unknown_experiment_fails_runs_not_engine():
    spec = SweepSpec.build("no_such_experiment", {"a": [1]})
    result = run_sweep(spec, None)
    assert result.failed == 1
    assert "unknown sweepable experiment" in result.records[0].error


# ----------------------------------------------------------------------
# Trace events
# ----------------------------------------------------------------------
def test_lifecycle_events_emitted(tmp_path):
    store = RunStore(tmp_path / "s")
    tracer = _tracer()
    run_sweep(SPEC, store, tracer=tracer)
    counts = Counter(e.type for e in tracer.events())
    assert counts["sweep_run_started"] == 6
    assert counts["sweep_run_finished"] == 6
    assert counts["sweep_run_skipped"] == 0

    resume_tracer = _tracer()
    run_sweep(SPEC, store, tracer=resume_tracer)
    resumed = Counter(e.type for e in resume_tracer.events())
    assert resumed == {"sweep_run_skipped": 6}


def test_retry_event_emitted_on_crash(tmp_path):
    spec = SweepSpec.build("selftest", {"crash": [1]}, n_seeds=1)
    tracer = _tracer()
    run_sweep(spec, RunStore(tmp_path / "s"), workers=2, retries=1,
              tracer=tracer)
    counts = Counter(e.type for e in tracer.events())
    assert counts["sweep_run_retried"] == 1
    assert counts["sweep_run_finished"] == 1


def test_sweep_events_roundtrip_wire_schema():
    from repro.obs import event_from_dict

    tracer = _tracer()
    run_sweep(SweepSpec.build("selftest", {"scale": [1.0]}), None,
              tracer=tracer)
    for event in tracer.events():
        assert event_from_dict(event.to_dict()).to_dict() == event.to_dict()
