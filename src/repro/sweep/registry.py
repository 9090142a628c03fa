"""Named sweepable experiments.

A sweepable experiment is a function ``fn(params, root_seed) -> metrics``
where ``params`` is one expanded parameter cell (plain scalars),
``root_seed`` is the run's independent random-universe root (see
:class:`repro.sweep.spec.RunSpec`), and ``metrics`` is a flat
``{name: scalar}`` dict — the unit the aggregator reduces across seeds.

Experiments are resolved *by name* from the registry of the process
that executes the run. A run's child process is forked from the sweep
process, so an ad-hoc experiment registered at runtime is found there
too; where fork is unavailable, only import-time registrations are.

Every paper artifact is an experiment under its own name, derived from
:data:`repro.experiments.ARTIFACTS` on first lookup (``fig1`` ... ``fig10``,
``table2``, ``table3``, ``qos``): a run is ``artifact.run(SystemConfig(
seed=root_seed), **params)``, and each numeric cell of the artifact's
table becomes the metric ``"<row label> | <column header>"`` — so a sweep
reports exactly what ``python -m repro <name>`` prints, and
:mod:`repro.sweep.report` renders it back in the table's shape. Its
parameters are the artifact's scalar command-line options.

The registered built-ins are the experiments that are not paper tables:

- ``chaos_matrix`` — one fault family of the canonical chaos plan run
  through the simulator (recovery metrics per seed x family cell).
- ``policy_matrix`` — one selection policy under the trap scenario of
  :mod:`repro.experiments.policy_matrix` (steady-state latency and
  failover-gap metrics per policy x churn x fault-family cell).
- ``controlplane_chaos`` — the sharded/replicated control plane run
  through its chaos scenario (shard x replica grid; frame loss and
  recovery counters per cell).
- ``chaos_hunt`` — the :mod:`repro.faults.search` schedule search: one
  seeded hunt (sample schedules, check the streaming invariant suite,
  shrink the first violation) per cell, each cell its own run.
- ``selftest``    — a microsecond-scale deterministic pseudo-experiment
  for exercising the engine itself (tests, smoke jobs); supports
  ``fail=1`` (raises), ``sleep_s`` (stalls), ``crash=1`` (kills the
  process), and ``crash_marker=<path>`` (kills the process once, then
  succeeds on retry — the deterministic kill drill).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping

if TYPE_CHECKING:  # pragma: no cover - experiment imports stay lazy
    from repro.faults.scenarios import ChaosReport

__all__ = [
    "SweepableExperiment",
    "register",
    "get_experiment",
    "experiment_names",
]

MetricsDict = Dict[str, float]
ExperimentFn = Callable[[Dict[str, Any], int], MetricsDict]


@dataclass(frozen=True)
class SweepableExperiment:
    """A named experiment the sweep engine can execute.

    Attributes:
        name: registry key (what ``RunSpec.experiment`` stores).
        fn: the callable ``(params, root_seed) -> metrics``.
        description: one-line help shown by ``repro sweep run --list``.
        default_grid: the grid ``repro sweep run`` uses when the user
            passes no ``--param`` (typically the paper's own axis).
        param_help: parameter schema — name -> one-line description of
            each knob the experiment reads (shown by ``repro sweep
            list``; purely documentation, never validated against).
    """

    name: str
    fn: ExperimentFn
    description: str = ""
    default_grid: Mapping[str, List[Any]] = field(default_factory=dict)
    param_help: Mapping[str, str] = field(default_factory=dict)


_REGISTRY: Dict[str, SweepableExperiment] = {}


def register(experiment: SweepableExperiment, *, replace: bool = False) -> None:
    """Add an experiment to the registry.

    Re-registering an existing name is refused unless ``replace=True``:
    silently shadowing a built-in would change what cached run keys mean.
    """
    if experiment.name in _REGISTRY and not replace:
        raise ValueError(f"experiment already registered: {experiment.name!r}")
    _REGISTRY[experiment.name] = experiment


def _artifacts() -> Mapping[str, Any]:
    # Imported on lookup, not with the package: `import repro.sweep`
    # stays cheap, and a worker still resolves every artifact by name.
    from repro.experiments import ARTIFACTS

    return ARTIFACTS


def get_experiment(name: str) -> SweepableExperiment:
    if name in _REGISTRY:
        return _REGISTRY[name]
    artifact = _artifacts().get(name)
    if artifact is None:
        known = ", ".join(experiment_names())
        raise KeyError(
            f"unknown sweepable experiment {name!r}; registered: {known}"
        )
    return SweepableExperiment(
        name=name,
        fn=partial(_artifact_metrics, name),
        description=f"{artifact.help}: every numeric cell of its table",
        param_help={
            keyword: f"`repro {name} {flag}` (default {kwargs['default']})"
            for flag, keyword, kwargs in artifact.options
            if "nargs" not in kwargs
        },
    )


def experiment_names() -> List[str]:
    return sorted({*_REGISTRY, *_artifacts()})


# ----------------------------------------------------------------------
# Built-in entry points (lazy experiment imports keep `import repro.sweep`
# cheap; the registry itself must import at worker start)
# ----------------------------------------------------------------------
def _artifact_metrics(name: str, params: Dict[str, Any], root_seed: int) -> MetricsDict:
    """Run one paper artifact; its table's numeric cells are the metrics."""
    from repro.core.config import SystemConfig

    artifact = _artifacts()[name]
    _, headers, rows = artifact.table(
        artifact.run(SystemConfig(seed=root_seed), **params)
    )
    return {
        f"{row[0]} | {header}": float(cell)
        for row in rows
        for header, cell in zip(headers[1:], row[1:])
        if isinstance(cell, (int, float)) and not isinstance(cell, bool)
    }


def _chaos_metrics(report: "ChaosReport") -> MetricsDict:
    """The recovery metrics every chaos experiment reports."""
    total = report.frames_completed + report.frames_lost
    return {
        "frames_completed": float(report.frames_completed),
        "frames_lost": float(report.frames_lost),
        "loss_rate": report.frames_lost / total if total else 0.0,
        "faults_injected": float(sum(report.injected.values())),
        "covered_failovers": float(
            report.event_counts.get("covered_failover", 0)
        ),
        "uncovered_failures": float(
            report.event_counts.get("uncovered_failure", 0)
        ),
        "invariant_violations": float(len(report.problems)),
    }


def _chaos_matrix(params: Dict[str, Any], root_seed: int) -> MetricsDict:
    from repro.faults import FaultPlan
    from repro.faults.scenarios import CANONICAL, run_chaos

    family = str(params.get("fault_family", "all"))
    horizon_ms = float(params.get("horizon_ms", 20_000.0))
    full = CANONICAL.default_plan(horizon_ms)
    families = {
        "none": FaultPlan(),
        "messages": FaultPlan(message_faults=full.message_faults),
        "partition": FaultPlan(partitions=full.partitions),
        "crash": FaultPlan(crashes=full.crashes),
        "outage": FaultPlan(outages=full.outages),
        "gray": FaultPlan(gray_nodes=full.gray_nodes),
        "all": full,
    }
    if family not in families:
        raise ValueError(
            f"unknown fault_family {family!r}; known: {sorted(families)}"
        )
    report, _ = run_chaos(
        CANONICAL,
        seed=root_seed,
        horizon_ms=horizon_ms,
        plan=families[family],
        top_n=int(params.get("top_n", 3)),
    )
    return {
        **_chaos_metrics(report),
        "degraded_fallbacks": float(
            report.event_counts.get("degraded_fallback", 0)
        ),
    }


def _policy_matrix(params: Dict[str, Any], root_seed: int) -> MetricsDict:
    from repro.experiments.policy_matrix import run_policy_matrix

    result = run_policy_matrix(
        str(params.get("policy", "go")),
        fault_family=str(params.get("fault_family", "node_crash")),
        churn_rate=float(params.get("churn_rate", 1.0)),
        horizon_ms=float(params.get("horizon_ms", 60_000.0)),
        n_users=int(params.get("n_users", 3)),
        warmup_ms=float(params.get("warmup_ms", 10_000.0)),
        seed=root_seed,
    )
    return dict(result.metrics)


def _controlplane_chaos(params: Dict[str, Any], root_seed: int) -> MetricsDict:
    from repro.faults.scenarios import controlplane, run_chaos

    scenario = controlplane(
        int(params.get("shards", 2)), int(params.get("replicas", 2))
    )
    report, _ = run_chaos(
        scenario,
        seed=root_seed,
        horizon_ms=float(params.get("horizon_ms", 20_000.0)),
        n_clients=int(params.get("n_clients", scenario.n_clients)),
        top_n=int(params.get("top_n", 3)),
    )
    return {
        **_chaos_metrics(report),
        "task_errors": float(len(report.task_errors)),
    }


def _chaos_hunt(params: Dict[str, Any], root_seed: int) -> MetricsDict:
    from repro.faults.search import HuntConfig, hunt

    overrides: Dict[str, Any] = {}
    detection_ms = params.get("failure_detection_ms")
    if detection_ms is not None:
        overrides["failure_detection_ms"] = float(detection_ms)
    config = HuntConfig(
        scenario=str(params.get("scenario", "canonical")),
        attempts=int(params.get("attempts", 10)),
        horizon_ms=float(params.get("horizon_ms", 20_000.0)),
        shards=int(params.get("shards", 2)),
        replicas=int(params.get("replicas", 2)),
        max_rules=int(params.get("max_rules", 5)),
        config_overrides=tuple(sorted(overrides.items())),
    )
    result = hunt(config, hunt_seed=root_seed)
    return {
        "found": 1.0 if result.found else 0.0,
        "attempts": float(result.attempts),
        "violations": float(len(result.violations)),
        "original_rules": float(result.original_rules),
        "shrunk_rules": float(result.shrunk_rules),
        "shrink_runs": float(result.shrink_runs),
    }


def _selftest(params: Dict[str, Any], root_seed: int) -> MetricsDict:
    """Deterministic pseudo-metrics in microseconds — engine self-checks."""
    if int(params.get("fail", 0)):
        raise RuntimeError("selftest experiment asked to fail")
    if int(params.get("crash", 0)):  # pragma: no cover - kills the process
        import os

        os._exit(13)
    marker = str(params.get("crash_marker", "") or "")
    if marker:
        # Die hard exactly once: the run that creates the marker kills
        # its process (no exception containment possible); every later
        # visit, its own retry included, finds the marker and succeeds.
        # Creation is exclusive, so runs executing side by side cannot
        # both take the crash. Deterministic kill drill for platform
        # tests and the CI smoke job.
        import os

        try:
            with open(marker, "x", encoding="utf-8") as fh:
                fh.write("crashed once\n")
        except FileExistsError:
            pass
        else:
            os._exit(13)
    sleep_s = float(params.get("sleep_s", 0.0))
    if sleep_s > 0.0:
        import time

        time.sleep(sleep_s)
    from repro.sim.random import RandomStreams

    stream = RandomStreams(root_seed).get("selftest")
    scale = float(params.get("scale", 1.0))
    return {
        "value": scale * stream.random(),
        "draws": 1.0,
    }


register(
    SweepableExperiment(
        name="chaos_matrix",
        fn=_chaos_matrix,
        description="policy (TopN) x fault-family grid through the chaos scenario",
        default_grid={
            "fault_family": [
                "none",
                "messages",
                "partition",
                "crash",
                "outage",
                "gray",
                "all",
            ],
            "top_n": [1, 3],
        },
        param_help={
            "fault_family": "which slice of the canonical chaos plan to inject"
            " (none|messages|partition|crash|outage|gray|all)",
            "top_n": "size of the maintained candidate set",
            "horizon_ms": "simulated horizon in ms (default 20000)",
        },
    )
)
register(
    SweepableExperiment(
        name="policy_matrix",
        fn=_policy_matrix,
        description="selection-policy x churn-rate x fault-family trap scenario",
        default_grid={
            "policy": ["lo", "go", "ewma", "reliability", "churn"],
            "churn_rate": [0.5, 2.0],
            "fault_family": ["node_crash", "gray"],
        },
        param_help={
            "policy": "selection policy under test (lo|go|ewma|reliability|churn)",
            "churn_rate": "churn intensity multiplier (default 1.0)",
            "fault_family": "trap fault family (node_crash|gray)",
            "horizon_ms": "simulated horizon in ms (default 60000)",
            "n_users": "concurrent users (default 3)",
            "warmup_ms": "measurement warm-up to exclude, in ms (default 10000)",
        },
    )
)
register(
    SweepableExperiment(
        name="controlplane_chaos",
        fn=_controlplane_chaos,
        description="sharded/replicated control plane through its chaos scenario",
        default_grid={"shards": [1, 2], "replicas": [1, 2]},
        param_help={
            "shards": "geohash shards in the control plane (default 2)",
            "replicas": "replicas per shard (default 2)",
            "horizon_ms": "simulated horizon in ms (default 20000)",
            "n_clients": "clients issuing discovery traffic (default 3)",
            "top_n": "size of the maintained candidate set (default 3)",
        },
    )
)
register(
    SweepableExperiment(
        name="chaos_hunt",
        fn=_chaos_hunt,
        description="schedule search: seeded hunts for invariant violations,"
        " with shrinking (find rate / shrink stats per cell)",
        default_grid={
            "scenario": ["canonical", "controlplane"],
            "failure_detection_ms": [None, 4000.0],
        },
        param_help={
            "scenario": "scenario family plans replay on (canonical|controlplane)",
            "attempts": "schedules sampled per hunt (default 10)",
            "failure_detection_ms": "weakened detection budget override"
            " (None = the scenario default)",
            "horizon_ms": "simulated horizon in ms (default 20000)",
            "shards": "control-plane shards (controlplane scenario)",
            "replicas": "replicas per shard (controlplane scenario)",
            "max_rules": "max rules per sampled schedule (default 5)",
        },
    )
)
register(
    SweepableExperiment(
        name="selftest",
        fn=_selftest,
        description="microsecond engine self-check (deterministic pseudo-metrics)",
        default_grid={"scale": [1.0, 2.0]},
        param_help={
            "scale": "multiplier on the deterministic pseudo-metric",
            "fail": "1 = raise (exercise failure containment)",
            "crash": "1 = kill the executing process (exercise crash salvage)",
            "crash_marker": "path: kill the process once, succeed on retry"
            " (deterministic kill drill)",
            "sleep_s": "stall this long before returning (exercise timeouts)",
        },
    )
)
