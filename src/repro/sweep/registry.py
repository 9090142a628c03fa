"""Named sweepable experiments.

A sweepable experiment is a function ``fn(params, root_seed) -> metrics``
where ``params`` is one expanded parameter cell (plain scalars),
``root_seed`` is the run's independent random-universe root (see
:class:`repro.sweep.spec.RunSpec`), and ``metrics`` is a flat
``{name: scalar}`` dict — the unit the aggregator reduces across seeds.

Experiments are resolved *by name*: worker processes receive only the
name and look the callable up in their own registry, so built-ins must
be registered at import time (spawn-safe); ad-hoc experiments registered
at runtime work with the serial executor and with fork-started pools.

Built-ins wrap the repo's paper experiments:

- ``fig9_topn``   — one churn run at a given ``top_n`` (Fig. 9 cell).
- ``churn_trace`` — the Fig. 8 trace reduced to scalars.
- ``network_study`` — Fig. 1 RTT study per target class.
- ``qos_admission`` — one (population, QoS bound) admission cell.
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
  shrink the first violation) per cell, fanned out across the sweep
  engine's execution platforms.
- ``selftest``    — a microsecond-scale deterministic pseudo-experiment
  for exercising the engine itself (tests, smoke jobs); supports
  ``fail=1`` (raises), ``sleep_s`` (stalls), ``crash=1`` (kills the
  process), and ``crash_marker=<path>`` (kills the process once, then
  succeeds on retry — the deterministic dead-worker drill).
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


def get_experiment(name: str) -> SweepableExperiment:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise KeyError(
            f"unknown sweepable experiment {name!r}; registered: {known}"
        ) from None


def experiment_names() -> List[str]:
    return sorted(_REGISTRY)


# ----------------------------------------------------------------------
# Built-in entry points (lazy experiment imports keep `import repro.sweep`
# cheap; the registry itself must import at worker start)
# ----------------------------------------------------------------------
def _fig9_topn(params: Dict[str, Any], root_seed: int) -> MetricsDict:
    from repro.core.config import SystemConfig
    from repro.experiments.churn_experiment import (
        HORIZON_MS,
        make_churn_trace,
        run_churn_once,
    )

    top_n = int(params.get("top_n", 3))
    n_users = int(params.get("n_users", 10))
    duration_ms = float(params.get("duration_ms", HORIZON_MS))
    config = SystemConfig(seed=root_seed, top_n=top_n)
    trace = make_churn_trace(config, horizon_ms=duration_ms)
    run = run_churn_once(
        config, n_users=n_users, trace=trace, duration_ms=duration_ms
    )
    # The paper's Fig. 9(c) window is the middle third of the timeline
    # (60-120 s of the 3-minute horizon).
    window = (duration_ms / 3.0, 2.0 * duration_ms / 3.0)
    return {
        "probes": float(run.metrics.total_probes()),
        "test_invocations": float(run.metrics.total_test_invocations()),
        "avg_latency_ms": run.average_latency_ms(*window),
        "fairness_std_ms": run.fairness_std_ms(*window),
        "uncovered_failures": float(run.metrics.total_failures()),
    }


def _churn_trace(params: Dict[str, Any], root_seed: int) -> MetricsDict:
    from repro.core.config import SystemConfig
    from repro.experiments.churn_experiment import run_churn_trace
    from repro.metrics.stats import mean

    config = SystemConfig(seed=root_seed, top_n=int(params.get("top_n", 3)))
    result = run_churn_trace(config, bin_ms=float(params.get("bin_ms", 5_000.0)))
    values = [v for _, v in result.latency_trace]
    return {
        "trace_mean_ms": mean(values),
        "trace_peak_ms": max(values),
        "total_nodes": float(result.total_nodes),
        "windows": float(len(result.latency_trace)),
    }


def _network_study(params: Dict[str, Any], root_seed: int) -> MetricsDict:
    from repro.core.config import SystemConfig
    from repro.experiments.network_study import run_network_study

    config = SystemConfig(seed=root_seed)
    result = run_network_study(
        config,
        n_users=int(params.get("n_users", 15)),
        probes_per_pair=int(params.get("probes_per_pair", 20)),
    )
    metrics: MetricsDict = {}
    for group, summary in result.summaries().items():
        metrics[f"{group}_mean_ms"] = summary.mean_ms
        metrics[f"{group}_p50_ms"] = summary.p50_ms
        metrics[f"{group}_p90_ms"] = summary.p90_ms
    return metrics


def _qos_admission(params: Dict[str, Any], root_seed: int) -> MetricsDict:
    from repro.core.config import SystemConfig
    from repro.experiments.qos_admission import run_qos_admission

    n_users = int(params.get("n_users", 15))
    qos_ms = float(params.get("qos_ms", 90.0))
    config = SystemConfig(seed=root_seed)
    result = run_qos_admission(
        config, qos_latency_ms=qos_ms, user_counts=[n_users]
    )
    with_qos = result.with_qos[n_users]
    without = result.without_qos[n_users]
    return {
        "admitted": float(with_qos.admitted),
        "rejected": float(with_qos.rejected),
        "violation_rate_on": with_qos.violation_rate,
        "violation_rate_off": without.violation_rate,
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
    if int(params.get("crash", 0)):  # pragma: no cover - kills the worker
        import os

        os._exit(13)
    marker = str(params.get("crash_marker", "") or "")
    if marker:
        # Die hard exactly once: first visit leaves the marker and kills
        # the process (no exception containment possible); the retry sees
        # the marker and succeeds. Deterministic dead-worker drill for
        # platform tests and the CI smoke job.
        import os

        if not os.path.exists(marker):
            with open(marker, "w", encoding="utf-8") as fh:
                fh.write("crashed once\n")
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
        name="fig9_topn",
        fn=_fig9_topn,
        description="Fig. 9 churn cell: probes/invocations/latency/fairness at one TopN",
        default_grid={"top_n": [1, 2, 3, 4, 5]},
        param_help={
            "top_n": "size of the maintained candidate set (paper's TopN axis)",
            "n_users": "concurrent users in the churn run (default 10)",
            "duration_ms": "run horizon in ms (default: the Fig. 9 3-minute horizon)",
        },
    )
)
register(
    SweepableExperiment(
        name="churn_trace",
        fn=_churn_trace,
        description="Fig. 8 churn trace reduced to scalar latency statistics",
        default_grid={"top_n": [3]},
        param_help={
            "top_n": "size of the maintained candidate set (default 3)",
            "bin_ms": "latency-trace window width in ms (default 5000)",
        },
    )
)
register(
    SweepableExperiment(
        name="network_study",
        fn=_network_study,
        description="Fig. 1 RTT study: volunteer vs Local Zone vs cloud",
        default_grid={"probes_per_pair": [20]},
        param_help={
            "n_users": "probing vantage points (default 15)",
            "probes_per_pair": "RTT samples per (user, target) pair (default 20)",
        },
    )
)
register(
    SweepableExperiment(
        name="qos_admission",
        fn=_qos_admission,
        description="QoS admission cell: admitted/violations at one population",
        default_grid={"n_users": [5, 10, 15, 20]},
        param_help={
            "n_users": "user population size for the admission cell",
            "qos_ms": "QoS latency bound in ms (default 90)",
        },
    )
)
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
            " (deterministic dead-worker drill)",
            "sleep_s": "stall this long before returning (exercise timeouts)",
        },
    )
)
