"""Where sweep runs execute: in this process, or one forked child per run.

The sweep engine is split along one seam: the **scheduler**
(:func:`repro.sweep.executor.run_sweep`) owns *what* runs — ordering,
resume-skip, retry budgets, terminal statuses, persistence — and an
:class:`ExecutionPlatform` owns *where* it runs. The contract is three
methods:

- ``submit(run)`` enqueues one :class:`~repro.sweep.spec.RunSpec`.
- ``drain()`` yields exactly one :class:`RunOutcome` per submitted,
  not-yet-drained run, in whatever order the platform completes them
  (the scheduler restores expansion order), then returns. ``submit`` /
  ``drain`` may alternate any number of times.
- ``shutdown()`` stops whatever still runs; the platform is done after it.

A platform never decides policy. Experiment exceptions come back as
``failed`` outcomes; infrastructure losses (a child that died, a
timeout) come back as ``lost``/``timeout`` outcomes and the *scheduler*
decides whether to re-submit them.

Two implementations, chosen by ``run_sweep``'s ``workers``:

- :class:`InlinePlatform` (``workers == 1``) — in-process, serial,
  expansion order. The bit-identity reference; the platform where
  debuggers work. Ignores ``timeout_s``.
- :class:`ProcessPlatform` (``workers > 1``) — one forked child per
  run, at most ``workers`` alive at once. A child shares nothing with
  another run, so a crash or a timeout costs only the run it was
  executing.

Results are bit-identical across platforms by construction: a run's
metrics are a pure function of ``(experiment, params, root_seed)``
(see :mod:`repro.sweep.spec`), and aggregation sorts canonically.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait
from typing import Deque, Dict, Iterator, Mapping, Optional, Protocol, runtime_checkable

from repro.sweep.spec import RunSpec
from repro.sweep.store import STATUS_FAILED, STATUS_OK, STATUS_TIMEOUT

__all__ = [
    "OUTCOME_LOST",
    "RunOutcome",
    "ExecutionPlatform",
    "InlinePlatform",
    "ProcessPlatform",
]

#: Outcome status for an infrastructure loss (a child that died before
#: it answered): never persisted — the scheduler either requeues the run
#: or records it as ``failed`` once its retry budget is spent.
OUTCOME_LOST = "lost"


@dataclass(frozen=True)
class RunOutcome:
    """One platform-level execution result for one submitted run.

    ``status`` is ``ok``/``failed`` (terminal, experiment-level) or
    ``timeout``/``lost`` (infrastructure — scheduler decides retry).
    """

    run_key: str
    status: str
    metrics: Mapping[str, float] = field(default_factory=dict)
    error: Optional[str] = None
    duration_s: float = 0.0

    @property
    def is_terminal(self) -> bool:
        """Experiment-level outcome — the scheduler records it as-is."""
        return self.status in (STATUS_OK, STATUS_FAILED)


@runtime_checkable
class ExecutionPlatform(Protocol):
    """Where sweep runs execute. See the module docstring for the
    submit/drain/shutdown contract."""

    name: str

    def submit(self, run: RunSpec) -> None: ...

    def drain(self) -> Iterator[RunOutcome]: ...

    def shutdown(self) -> None: ...


def _execute_outcome(run: RunSpec) -> RunOutcome:
    """Run in this process with per-run failure containment.

    ``Exception`` is an experiment failure (contained); ``BaseException``
    (KeyboardInterrupt/SystemExit) propagates — the scheduler's finally
    blocks make that the Ctrl-C-safe resume path."""
    from repro.sweep.registry import get_experiment

    start = time.perf_counter()
    try:
        metrics = get_experiment(run.experiment).fn(run.params_dict(), run.root_seed)
    except Exception as exc:  # noqa: BLE001 - contained per-run
        return RunOutcome(
            run_key=run.run_key,
            status=STATUS_FAILED,
            error=f"{type(exc).__name__}: {exc}",
            duration_s=time.perf_counter() - start,
        )
    return RunOutcome(
        run_key=run.run_key,
        status=STATUS_OK,
        metrics=metrics,
        duration_s=time.perf_counter() - start,
    )


# ----------------------------------------------------------------------
class InlinePlatform:
    """Serial in-process execution in submission order."""

    name = "inline"

    def __init__(self) -> None:
        self._queue: Deque[RunSpec] = deque()

    def submit(self, run: RunSpec) -> None:
        self._queue.append(run)

    def drain(self) -> Iterator[RunOutcome]:
        while self._queue:
            yield _execute_outcome(self._queue.popleft())

    def shutdown(self) -> None:
        self._queue.clear()


# ----------------------------------------------------------------------
def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def _child(run: RunSpec, writer: Connection) -> None:
    """A child's whole life: one run, its outcome down the pipe."""
    writer.send(_execute_outcome(run))
    writer.close()


@dataclass
class _Child:
    run: RunSpec
    process: multiprocessing.process.BaseProcess
    deadline: Optional[float]


class ProcessPlatform:
    """One forked child per run, at most ``workers`` alive at once.

    Each child runs :func:`_execute_outcome` and sends the
    :class:`RunOutcome` back over a one-way pipe. The parent waits on the
    live readers, bounded by the oldest run's ``timeout_s`` deadline:

    - a reader at EOF means its child died — only that run comes back
      ``lost``;
    - a run past its deadline has its child killed — only that run comes
      back ``timeout``;
    - anything else is the run's own ``ok``/``failed`` outcome.

    The fork-first start method lets a child resolve experiments
    registered at runtime, like the inline platform does.
    """

    name = "process"

    def __init__(self, workers: int = 2, *, timeout_s: Optional[float] = None) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1: {workers}")
        self.workers = workers
        self.timeout_s = timeout_s
        self._context = _mp_context()
        self._queue: Deque[RunSpec] = deque()
        #: reader -> its child, in start order (oldest deadline first).
        self._live: Dict[Connection, _Child] = {}
        self._shutdown = False

    def submit(self, run: RunSpec) -> None:
        if self._shutdown:
            raise RuntimeError("platform already shut down")
        self._queue.append(run)

    def _start(self, run: RunSpec) -> None:
        reader, writer = self._context.Pipe(duplex=False)
        process = self._context.Process(target=_child, args=(run, writer))
        process.start()
        # The parent's copy of the writer must go before the next fork,
        # or a later child would hold it open and hide this one's EOF.
        writer.close()
        deadline = None if self.timeout_s is None else time.monotonic() + self.timeout_s
        self._live[reader] = _Child(run, process, deadline)

    def _reap(self, reader: Connection, *, kill: bool = False) -> _Child:
        child = self._live.pop(reader)
        if kill:
            child.process.kill()
        child.process.join()
        reader.close()
        return child

    def drain(self) -> Iterator[RunOutcome]:
        while self._queue or self._live:
            while self._queue and len(self._live) < self.workers:
                self._start(self._queue.popleft())
            oldest = next(iter(self._live.values())).deadline
            timeout = None if oldest is None else max(0.0, oldest - time.monotonic())
            for reader in wait(list(self._live), timeout):
                try:
                    outcome = reader.recv()
                except EOFError:
                    child = self._reap(reader)
                    yield RunOutcome(
                        run_key=child.run.run_key,
                        status=OUTCOME_LOST,
                        error=f"run's process died (exit code {child.process.exitcode})",
                    )
                    continue
                self._reap(reader)
                yield outcome
            now = time.monotonic()
            expired = [
                reader
                for reader, child in self._live.items()
                if child.deadline is not None and child.deadline <= now
            ]
            for reader in expired:
                child = self._reap(reader, kill=True)
                yield RunOutcome(
                    run_key=child.run.run_key,
                    status=STATUS_TIMEOUT,
                    error=f"run exceeded {self.timeout_s}s",
                )

    def shutdown(self) -> None:
        self._shutdown = True
        self._queue.clear()
        for reader in list(self._live):
            self._reap(reader, kill=True)
