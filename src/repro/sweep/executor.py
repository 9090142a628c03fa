"""The sans-execution sweep scheduler.

:func:`run_sweep` drives a :class:`~repro.sweep.spec.SweepSpec` to
completion over an optional :class:`~repro.sweep.store.RunStore` — but
it never touches a pipe or a process itself. Execution is delegated to
an :class:`~repro.sweep.platform.ExecutionPlatform` chosen by
``workers`` (in-process at 1, one forked child per run above; see
:mod:`repro.sweep.platform`), and the scheduler owns everything that is
*policy*, identically on both platforms:

- **Resume.** Runs whose ``run_key`` already has a successful record in
  the store are skipped (a ``sweep_run_skipped`` trace event each); an
  interrupted sweep re-executes exactly the missing runs.
- **Ordering.** Results are reported in the spec's expansion order
  regardless of completion order, and every run's randomness is rooted
  in its content-derived ``root_seed`` — so any platform produces
  bit-identical per-run metrics, hence bit-identical aggregates.
- **Failure containment & retry.** An exception raised *by the
  experiment* is recorded as a failed run (status ``failed``) and the
  sweep continues — deterministic failures would fail again, so they
  are not retried within a sweep, but a later sweep over the same store
  retries them. Infrastructure losses surfaced by the platform (a run
  whose process died, a per-run timeout) are re-submitted up to
  ``retries`` times, then recorded (``failed``/``timeout``). A loss is
  always the lost run's own: no other run is charged for it.
- **Crash safety.** Every record is persisted the moment its outcome
  arrives; ``KeyboardInterrupt``/``SystemExit`` propagate only after
  completed runs are on disk — which is what makes Ctrl-C + re-run a
  correct resume, not a corruption.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.obs.events import (
    SweepRunFinished,
    SweepRunRetried,
    SweepRunSkipped,
    SweepRunStarted,
)
from repro.obs.tracer import Tracer
from repro.sweep.aggregate import CellAggregate, aggregate_records
from repro.sweep.platform import (
    ExecutionPlatform,
    InlinePlatform,
    ProcessPlatform,
    RunOutcome,
)
from repro.sweep.spec import RunSpec, SweepSpec
from repro.sweep.store import (
    STATUS_FAILED,
    STATUS_OK,
    STATUS_TIMEOUT,
    RunRecord,
    RunStore,
)

__all__ = ["SweepResult", "run_sweep", "SweepInterrupted"]


class SweepInterrupted(RuntimeError):
    """Raised when ``limit`` stopped a sweep before all runs executed.

    Deliberate interruption (CI smoke jobs, token-budget runs) — the
    store holds everything completed so far; re-running resumes.
    """

    def __init__(self, executed: int, remaining: int) -> None:
        super().__init__(
            f"sweep interrupted after {executed} runs ({remaining} remaining)"
        )
        self.executed = executed
        self.remaining = remaining


@dataclass
class SweepResult:
    """Outcome of one :func:`run_sweep` call.

    ``records`` follows the spec's expansion order. Counters partition
    the spec's runs: ``executed + skipped == total`` when the sweep ran
    to completion (``interrupted`` False). ``platform`` names the
    execution platform that ran the pending runs.
    """

    spec: SweepSpec
    records: List[RunRecord] = field(default_factory=list)
    executed: int = 0
    skipped: int = 0
    failed: int = 0
    retried: int = 0
    interrupted: bool = False
    wall_s: float = 0.0
    platform: str = "inline"

    def ok_records(self) -> List[RunRecord]:
        return [r for r in self.records if r.ok]

    def aggregates(self) -> Dict[str, CellAggregate]:
        """Cross-seed aggregates over the successful records."""
        return aggregate_records(self.ok_records())


def _record_from_outcome(
    run: RunSpec, outcome: RunOutcome, *, attempts: int
) -> RunRecord:
    """A persistable record for a terminal outcome (ok/failed/timeout)."""
    status = outcome.status
    if status not in (STATUS_OK, STATUS_FAILED, STATUS_TIMEOUT):
        status = STATUS_FAILED  # a "lost" run out of retry budget
    return RunRecord(
        run_key=run.run_key,
        experiment=run.experiment,
        params=run.params_dict(),
        seed_index=run.seed_index,
        root_seed=run.root_seed,
        status=status,
        metrics=dict(outcome.metrics) if status == STATUS_OK else {},
        error=outcome.error,
        attempts=attempts,
        duration_s=outcome.duration_s,
    )


# ----------------------------------------------------------------------
def run_sweep(
    spec: SweepSpec,
    store: Optional[RunStore] = None,
    *,
    workers: int = 1,
    timeout_s: Optional[float] = None,
    retries: int = 1,
    limit: Optional[int] = None,
    tracer: Optional[Tracer] = None,
    progress: Optional[Callable[[RunRecord], None]] = None,
) -> SweepResult:
    """Execute (or resume) a sweep; returns records in expansion order.

    Args:
        spec: the sweep to run.
        store: persistent run store; None = in-memory only (no resume).
        workers: runs executing at once. 1 runs them in this process,
            in expansion order (``InlinePlatform``, the bit-identity
            reference); more runs each in a forked child, at most this
            many alive (``ProcessPlatform``).
        timeout_s: per-run wall bound from the start of the run's child;
            the child is killed and the run recorded with status
            ``timeout`` after its retry budget. The inline platform
            ignores it.
        retries: how many times an infrastructure loss (a run whose
            process died, a timeout) re-submits a run before recording
            it as lost.
        limit: execute at most this many runs, then raise
            :class:`SweepInterrupted` (completed work is persisted) —
            the deterministic "interrupt" used by resume tests and CI.
        tracer: optional :class:`~repro.obs.tracer.Tracer` receiving
            sweep lifecycle events (started/finished/retried/skipped).
        progress: optional callback invoked with each fresh record.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1: {workers}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0: {retries}")
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be >= 0: {limit}")
    tracer = tracer or Tracer.disabled()
    if store is not None:
        store.save_manifest(spec)

    runs = spec.expand()
    result = SweepResult(spec=spec)
    started = time.perf_counter()

    # Partition: cached vs pending (preserving expansion order).
    completed = store.completed_keys() if store is not None else set()
    by_key: Dict[str, RunRecord] = {}
    pending: List[RunSpec] = []
    for run in runs:
        if run.run_key in completed and store is not None:
            cached = store.get(run.run_key)
            assert cached is not None
            by_key[run.run_key] = cached
            result.skipped += 1
            if tracer.enabled:
                tracer.emit(
                    SweepRunSkipped(tracer.now(), run.run_key, run.experiment)
                )
        else:
            pending.append(run)

    def commit(record: RunRecord) -> None:
        by_key[record.run_key] = record
        if store is not None:
            store.put(record)
        if record.status != STATUS_OK:
            result.failed += 1
        result.executed += 1
        if progress is not None:
            progress(record)

    budget = len(pending) if limit is None else min(limit, len(pending))
    engine: ExecutionPlatform = (
        InlinePlatform()
        if workers == 1
        else ProcessPlatform(workers, timeout_s=timeout_s)
    )
    result.platform = engine.name
    try:
        _schedule(
            pending[:budget], engine, commit, tracer,
            retries=retries, result=result,
        )
    finally:
        engine.shutdown()
        result.records = [by_key[r.run_key] for r in runs if r.run_key in by_key]
        result.wall_s = time.perf_counter() - started

    if budget < len(pending):
        result.interrupted = True
        raise SweepInterrupted(result.executed, len(pending) - budget)
    return result


# ----------------------------------------------------------------------
def _schedule(
    pending: List[RunSpec],
    engine: ExecutionPlatform,
    commit: Callable[[RunRecord], None],
    tracer: Tracer,
    *,
    retries: int,
    result: SweepResult,
) -> None:
    """Submit/drain waves until every pending run has a terminal record.

    Each wave submits the queue (emitting ``sweep_run_started`` with the
    attempt number), drains the platform, records terminal outcomes, and
    collects infrastructure losses into the next wave — bounded by the
    per-run ``retries`` budget.
    """
    by_key: Dict[str, RunSpec] = {run.run_key: run for run in pending}
    attempts: Dict[str, int] = {run.run_key: 0 for run in pending}
    queue = list(pending)
    while queue:
        wave, queue = queue, []
        for run in wave:
            attempts[run.run_key] += 1
            if tracer.enabled:
                tracer.emit(
                    SweepRunStarted(
                        tracer.now(),
                        run.run_key,
                        run.experiment,
                        attempts[run.run_key],
                    )
                )
            engine.submit(run)
        for outcome in engine.drain():
            run = by_key[outcome.run_key]
            key = run.run_key
            if outcome.is_terminal:
                record = _record_from_outcome(
                    run, outcome, attempts=attempts[key]
                )
                commit(record)
                _emit_finished(tracer, run, record)
                continue
            # Infrastructure loss: requeue within budget, else record.
            if attempts[key] <= retries:
                result.retried += 1
                if tracer.enabled:
                    tracer.emit(
                        SweepRunRetried(
                            tracer.now(),
                            key,
                            run.experiment,
                            attempts[key] + 1,
                            outcome.error or outcome.status,
                        )
                    )
                queue.append(run)
            else:
                record = _record_from_outcome(
                    run, outcome, attempts=attempts[key]
                )
                commit(record)
                _emit_finished(tracer, run, record)


def _emit_finished(tracer: Tracer, run: RunSpec, record: RunRecord) -> None:
    if tracer.enabled:
        tracer.emit(
            SweepRunFinished(
                tracer.now(),
                run.run_key,
                run.experiment,
                record.status,
                record.duration_s,
            )
        )
