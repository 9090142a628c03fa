"""``repro.sweep`` — a platform-pluggable, resumable experiment engine.

The paper's evaluation is a grid: parameter axes x seeds x strategies.
This subsystem turns any registered experiment into a sweepable unit
and executes the grid with the job-runner shape production stacks use —
pluggable execution platforms, content-addressed result caching,
bounded retry, deterministic aggregation, automated reporting:

- :mod:`repro.sweep.spec` — :class:`SweepSpec` (declarative grid) and
  :class:`RunSpec` (one run, with a content-hashed ``run_key`` and an
  order-independent ``root_seed``).
- :mod:`repro.sweep.registry` — named sweepable experiments: every
  paper artifact under its own name (``fig1`` ... ``fig10``, ``table2``,
  ``table3``, ``qos``, derived from :data:`repro.experiments.ARTIFACTS`,
  one metric per numeric cell of its table) plus ``chaos_matrix``,
  ``policy_matrix``, ``controlplane_chaos``, ``chaos_hunt`` and
  ``selftest``, each with a parameter schema shown by
  ``repro sweep list``.
- :mod:`repro.sweep.store` — crash-safe on-disk run store (atomic
  JSONL records keyed by ``run_key``); interrupted sweeps resume by
  skipping completed runs.
- :mod:`repro.sweep.executor` — :func:`run_sweep`, the sans-execution
  scheduler: ordering, resume-skip, retry budgets, Ctrl-C-safe
  persistence. Never touches a pool.
- :mod:`repro.sweep.platform` — the :class:`ExecutionPlatform` seam and
  its implementations: inline (serial reference), process pool, and
  long-lived worker subprocesses (:mod:`repro.sweep.worker`) speaking a
  host-agnostic JSON-lines protocol with heartbeats and dead-worker
  requeue.
- :mod:`repro.sweep.aggregate` — cross-seed mean/p50/p95/CI reduction
  and comparison tables.
- :mod:`repro.sweep.report` — store -> Markdown tables (a paper
  artifact's in its own table's shape) and tagged-section refresh of
  EXPERIMENTS.md, every measured table of which is generated
  (byte-reproducible; CI diffs it).

Results are bit-identical across platforms: a run's metrics are a pure
function of its content-derived ``root_seed``, so serial, pooled,
subprocess, interrupted-and-resumed executions all converge to the same
``aggregates_digest``.

CLI: ``repro sweep run|status|list|report``. Lifecycle trace events
(``sweep_run_started``/``finished``/``retried``/``skipped``,
``worker_spawn``/``worker_dead``/``run_requeued``) flow through
:mod:`repro.obs` like every other subsystem's.
"""

from repro.sweep.aggregate import (
    CellAggregate,
    MetricAggregate,
    aggregate_records,
    aggregates_digest,
    comparison_table,
    metric_names,
)
from repro.sweep.executor import SweepInterrupted, SweepResult, run_sweep
from repro.sweep.platform import (
    ExecutionPlatform,
    InlinePlatform,
    ProcessPoolPlatform,
    RunOutcome,
    SubprocessPlatform,
    make_platform,
    platform_names,
)
from repro.sweep.registry import (
    SweepableExperiment,
    experiment_names,
    get_experiment,
    register,
)
from repro.sweep.report import (
    SectionCheckFailed,
    render_markdown,
    render_store_markdown,
    store_digest,
    tagged_section,
    update_tagged_section,
)
from repro.sweep.spec import RunSpec, SweepSpec
from repro.sweep.store import RunRecord, RunStore

__all__ = [
    "SweepSpec",
    "RunSpec",
    "RunStore",
    "RunRecord",
    "run_sweep",
    "SweepResult",
    "SweepInterrupted",
    "ExecutionPlatform",
    "RunOutcome",
    "InlinePlatform",
    "ProcessPoolPlatform",
    "SubprocessPlatform",
    "make_platform",
    "platform_names",
    "SweepableExperiment",
    "register",
    "get_experiment",
    "experiment_names",
    "aggregate_records",
    "aggregates_digest",
    "comparison_table",
    "metric_names",
    "CellAggregate",
    "MetricAggregate",
    "render_markdown",
    "render_store_markdown",
    "store_digest",
    "tagged_section",
    "update_tagged_section",
    "SectionCheckFailed",
]
