"""Schedule search: hunt for invariant violations, shrink to reproducers.

The canonical chaos plans exercise every fault family once, in one
hand-picked arrangement. This module searches the space of arrangements:

- :class:`FaultSpace` types the sampling space — which fault families,
  over which windows, against which targets (edges, the user fleet,
  control-plane shards) — with the same settle-tail discipline the
  canonical plans follow, so every sampled schedule is one the system
  is *supposed* to recover from;
- :func:`sample_plan` draws one seeded :class:`FaultPlan` from a space
  (pure function of the RNG: the same hunt seed regenerates the same
  schedule);
- :func:`hunt` replays sampled schedules on the deterministic sim,
  runs the streaming invariant suite from :mod:`repro.verify` over each
  trace, and stops at the first violation;
- :func:`shrink` then reduces the violating schedule delta-debugging
  style — drop rules to a fixpoint, narrow activation windows, reduce
  glob targets to concrete ids — re-running after every step and
  keeping only reductions that still reproduce the violation;
- :class:`ReproArtifact` packages the result (plan + seed +
  ``SystemConfig`` overrides + expected violation) as a self-contained
  JSON file that :func:`replay_artifact` re-executes bit-identically.

Soundness rests on the injector's determinism contract: per-rule RNG
streams are derived from ``(plan_seed, rule_id)`` alone, so dropping or
reordering rules never perturbs the draws of the rules that remain —
a shrunk plan replays the surviving faults exactly as the original did.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, fields
from dataclasses import replace as dc_replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.faults.plan import (
    FaultPlan,
    GrayNode,
    ManagerOutage,
    MessageFault,
    NodeCrash,
    Partition,
    Window,
    plan_from_dict,
    plan_to_dict,
)
from repro.faults.scenarios import (
    CANONICAL,
    SCENARIOS,
    ChaosReport,
    ChaosScenario,
    run_chaos,
)
from repro.obs.events import TraceEvent
from repro.verify import Violation

__all__ = [
    "FaultSpace",
    "HuntConfig",
    "HuntResult",
    "ReproArtifact",
    "sample_plan",
    "hunt",
    "shrink",
    "replay_artifact",
    "run_plan",
]

ARTIFACT_VERSION = 1

#: Fault families a space can sample from.
FAMILIES = ("message", "partition", "crash", "outage", "gray")


# ----------------------------------------------------------------------
# The sampling space
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultSpace:
    """The typed space of schedules the hunt samples from.

    Every sampled plan respects the canonical settle discipline: all
    windows close and every crashed node restarts by
    ``active_fraction`` of the horizon, leaving a fault-free tail in
    which recovery must complete. A schedule that breaks the system
    *inside* that envelope is a genuine finding, not a plan that merely
    asked for the impossible (e.g. every edge dead at the final bell).
    """

    horizon_ms: float = 20_000.0
    edge_ids: Tuple[str, ...] = CANONICAL.edge_ids
    user_pattern: str = "user-*"
    #: Control-plane shards eligible for targeted primary outages;
    #: empty = only whole-manager outages are sampled.
    shard_targets: Tuple[int, ...] = ()
    families: Tuple[str, ...] = FAMILIES
    max_rules: int = 5
    #: Fraction of the horizon in which faults may be active; the rest
    #: is the fault-free settle tail.
    active_fraction: float = 0.8
    allow_whole_manager_outage: bool = True

    def __post_init__(self) -> None:
        if not self.edge_ids:
            raise ValueError("FaultSpace needs at least one edge id")
        if self.max_rules < 1:
            raise ValueError(f"max_rules must be >= 1: {self.max_rules}")
        if not 0.1 <= self.active_fraction <= 1.0:
            raise ValueError(
                f"active_fraction must be in [0.1, 1]: {self.active_fraction}"
            )
        for fam in self.families:
            if fam not in FAMILIES:
                raise ValueError(f"unknown fault family: {fam!r}")


def _sample_window(space: FaultSpace, rng: random.Random) -> Window:
    h = space.horizon_ms
    hi = space.active_fraction
    start = rng.uniform(0.05, hi - 0.1) * h
    length = rng.uniform(0.05, 0.3) * h
    return Window(start, min(start + length, hi * h))


def sample_plan(space: FaultSpace, rng: random.Random) -> FaultPlan:
    """Draw one schedule from the space (pure function of the RNG)."""
    n_rules = rng.randint(1, space.max_rules)
    message_faults: List[MessageFault] = []
    partitions: List[Partition] = []
    crashes: List[NodeCrash] = []
    outages: List[ManagerOutage] = []
    gray_nodes: List[GrayNode] = []
    for i in range(n_rules):
        family = rng.choice(space.families)
        window = _sample_window(space, rng)
        if family == "message":
            mangle = rng.choice(("drop", "delay", "dup"))
            message_faults.append(
                MessageFault(
                    f"mf-{i}",
                    window,
                    src=space.user_pattern,
                    ops=(rng.choice(("frame", "join", "probe", "discover")),),
                    drop_p=rng.uniform(0.1, 0.6) if mangle == "drop" else 0.0,
                    delay_ms=rng.uniform(20.0, 120.0) if mangle == "delay" else 0.0,
                    delay_jitter_ms=rng.uniform(0.0, 40.0)
                    if mangle == "delay"
                    else 0.0,
                    delay_p=0.5 if mangle == "delay" else 1.0,
                    duplicate_p=rng.uniform(0.1, 0.4) if mangle == "dup" else 0.0,
                )
            )
        elif family == "partition":
            partitions.append(
                Partition(
                    f"part-{i}",
                    space.user_pattern,
                    rng.choice(space.edge_ids),
                    window,
                    symmetric=rng.random() < 0.7,
                )
            )
        elif family == "crash":
            h = space.horizon_ms
            at = rng.uniform(0.1, space.active_fraction - 0.15) * h
            restart = rng.uniform(
                at / h + 0.05, space.active_fraction
            ) * h
            crashes.append(
                NodeCrash(
                    f"crash-{i}",
                    rng.choice(space.edge_ids),
                    at,
                    restart_at_ms=restart,
                )
            )
        elif family == "outage":
            choices: List[Optional[int]] = list(space.shard_targets)
            if space.allow_whole_manager_outage or not choices:
                choices.append(None)
            outages.append(
                ManagerOutage(f"out-{i}", window, shard=rng.choice(choices))
            )
        else:  # gray
            gray_nodes.append(
                GrayNode(
                    f"gray-{i}",
                    rng.choice(space.edge_ids),
                    window,
                    slowdown=rng.uniform(2.0, 10.0),
                )
            )
    return FaultPlan(
        message_faults=tuple(message_faults),
        partitions=tuple(partitions),
        crashes=tuple(crashes),
        outages=tuple(outages),
        gray_nodes=tuple(gray_nodes),
    )


# ----------------------------------------------------------------------
# Replaying one schedule
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HuntConfig:
    """Everything one hunt needs to replay schedules reproducibly."""

    scenario: str = "canonical"  # or "controlplane"
    attempts: int = 25
    horizon_ms: float = 20_000.0
    n_clients: int = 2
    top_n: int = 3
    shards: int = 2
    replicas: int = 2
    max_rules: int = 5
    #: SystemConfig fields to patch — the lever for hunting against
    #: deliberately weakened configurations.
    config_overrides: Tuple[Tuple[str, Any], ...] = ()
    #: Cap on reduction re-runs during shrinking.
    shrink_budget: int = 64

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario: {self.scenario!r}")

    @property
    def overrides_dict(self) -> Dict[str, Any]:
        return dict(self.config_overrides)

    def chaos_scenario(self) -> ChaosScenario:
        return SCENARIOS[self.scenario](self.shards, self.replicas)

    def space(self) -> FaultSpace:
        """The fault space this configuration implies: the scenario's
        edges, and shard-targeted outages on its populated shards only."""
        scenario = self.chaos_scenario()
        return FaultSpace(
            horizon_ms=self.horizon_ms,
            edge_ids=scenario.edge_ids,
            shard_targets=scenario.shard_targets,
            max_rules=self.max_rules,
        )


def run_plan(
    plan: FaultPlan, seed: int, config: HuntConfig
) -> Tuple[ChaosReport, List[TraceEvent]]:
    """Replay one schedule on the deterministic sim backend.

    Returns the report (whose ``violations`` field carries the
    streaming-invariant verdict) and the trace events. Same ``(plan,
    seed, config)`` → bit-identical trace; this is the primitive the
    hunt, the shrinker and artifact replay all share.
    """
    return run_chaos(
        config.chaos_scenario(),
        backend="sim",
        seed=seed,
        horizon_ms=config.horizon_ms,
        plan=plan,
        n_clients=config.n_clients,
        top_n=config.top_n,
        config_overrides=config.overrides_dict or None,
    )


def _reproduces(violations: Sequence[Violation], signature: str) -> bool:
    return any(v.invariant == signature for v in violations)


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------
def _map_rules(
    plan: FaultPlan, rewrite: Callable[[Tuple[Any, ...]], Iterable[Any]]
) -> FaultPlan:
    """The plan with every family's rule tuple passed through ``rewrite``."""
    return FaultPlan(
        **{f.name: tuple(rewrite(getattr(plan, f.name))) for f in fields(plan)}
    )


def _without_rule(plan: FaultPlan, rule_id: str) -> FaultPlan:
    return _map_rules(plan, lambda rules: (r for r in rules if r.rule_id != rule_id))


def _replace_rule(plan: FaultPlan, rule: Any) -> FaultPlan:
    """Swap in a mutated rule, keyed by its (unchanged) rule id."""
    return _map_rules(
        plan, lambda rules: (rule if r.rule_id == rule.rule_id else r for r in rules)
    )


def _narrowed_variants(rule: object) -> List[object]:
    """Cheaper variants of one rule: halved window, or concrete targets."""
    variants: List[object] = []
    window = getattr(rule, "window", None)
    if window is not None and window.end_ms != float("inf"):
        span = window.end_ms - window.start_ms
        if span > 500.0:
            half = span / 2.0
            variants.append(
                dc_replace(rule, window=Window(window.start_ms, window.end_ms - half))
            )
            variants.append(
                dc_replace(rule, window=Window(window.start_ms + half, window.end_ms))
            )
    if isinstance(rule, NodeCrash) and rule.restart_at_ms is not None:
        span = rule.restart_at_ms - rule.at_ms
        if span > 500.0:
            variants.append(
                dc_replace(rule, restart_at_ms=rule.at_ms + span / 2.0)
            )
    return variants


def _target_variants(rule: object, concrete_users: Sequence[str]) -> List[object]:
    """Glob targets narrowed to single concrete ids (``user-*`` → one user)."""
    variants: List[object] = []
    if isinstance(rule, MessageFault) and rule.src.endswith("*"):
        variants.extend(dc_replace(rule, src=u) for u in concrete_users)
    if isinstance(rule, Partition) and rule.a.endswith("*"):
        variants.extend(dc_replace(rule, a=u) for u in concrete_users)
    return variants


def shrink(
    plan: FaultPlan,
    seed: int,
    config: HuntConfig,
    signature: str,
    *,
    on_step: Optional[Callable[[str, FaultPlan, FaultPlan, bool], None]] = None,
) -> Tuple[FaultPlan, int]:
    """Reduce a violating schedule to a minimal reproducer.

    Classic delta-debugging structure, specialised to fault plans:

    1. **drop rules** — try removing each rule; loop to a fixpoint
       (a 1-minimal plan: removing any single rule loses the bug);
    2. **narrow windows** — halve each surviving rule's activation
       window (keep either half that still reproduces) and pull crash
       restarts earlier;
    3. **reduce targets** — replace fleet globs with single concrete
       ids.

    Reproduction means: replaying the reduced plan with the *same* seed
    still yields a violation of the ``signature`` invariant. Every
    candidate costs one sim run; ``config.shrink_budget`` caps the
    total. Returns the reduced plan and the number of runs spent.
    """
    runs = 0

    def still_fails(candidate: FaultPlan) -> bool:
        nonlocal runs
        runs += 1
        report, _ = run_plan(candidate, seed, config)
        return _reproduces(report.violations, signature)

    def budget_left() -> bool:
        return runs < config.shrink_budget

    # Phase 1: drop rules to a fixpoint.
    changed = True
    while changed and budget_left():
        changed = False
        for rule in list(plan.all_rules()):
            if len(plan) == 1 or not budget_left():
                break
            candidate = _without_rule(plan, rule.rule_id)  # type: ignore[attr-defined]
            kept = still_fails(candidate)
            if on_step is not None:
                on_step("drop_rules", plan, candidate, kept)
            if kept:
                plan = candidate
                changed = True

    # Phase 2: narrow windows (repeat so halving compounds).
    changed = True
    while changed and budget_left():
        changed = False
        for rule in list(plan.all_rules()):
            if not budget_left():
                break
            for variant in _narrowed_variants(rule):
                if not budget_left():
                    break
                candidate = _replace_rule(plan, variant)
                kept = still_fails(candidate)
                if on_step is not None:
                    on_step("narrow_window", plan, candidate, kept)
                if kept:
                    plan = candidate
                    changed = True
                    break

    # Phase 3: concrete targets.
    concrete_users = list(config.chaos_scenario().world(config.n_clients).user_ids)
    for rule in list(plan.all_rules()):
        if not budget_left():
            break
        for variant in _target_variants(rule, concrete_users):
            if not budget_left():
                break
            candidate = _replace_rule(plan, variant)
            kept = still_fails(candidate)
            if on_step is not None:
                on_step("reduce_targets", plan, candidate, kept)
            if kept:
                plan = candidate
                break

    return plan, runs


# ----------------------------------------------------------------------
# The repro artifact
# ----------------------------------------------------------------------
@dataclass
class ReproArtifact:
    """A self-contained, replayable reproducer for one violation.

    Everything a fresh process needs to re-execute the violating run
    bit-identically: the (shrunk) plan, the run seed, the scenario and
    its ``SystemConfig`` overrides, plus the expected violation so the
    replay can assert it reproduced *the same* bug, not merely *a* bug.
    """

    scenario: str
    seed: int
    plan: FaultPlan
    violation: Violation
    config_overrides: Dict[str, Any] = field(default_factory=dict)
    horizon_ms: float = 20_000.0
    n_clients: int = 2
    top_n: int = 3
    shards: int = 2
    replicas: int = 2
    hunt_seed: Optional[int] = None
    version: int = ARTIFACT_VERSION

    def hunt_config(self) -> HuntConfig:
        return HuntConfig(
            scenario=self.scenario,
            horizon_ms=self.horizon_ms,
            n_clients=self.n_clients,
            top_n=self.top_n,
            shards=self.shards,
            replicas=self.replicas,
            config_overrides=tuple(sorted(self.config_overrides.items())),
        )

    def to_dict(self) -> Dict[str, Any]:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["plan"] = plan_to_dict(self.plan)
        data["violation"] = self.violation.to_dict()
        data["config_overrides"] = dict(self.config_overrides)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ReproArtifact":
        """Absent keys take the field defaults above."""
        data = dict(data)
        data["plan"] = plan_from_dict(data["plan"])
        data["violation"] = Violation.from_dict(data["violation"])
        return cls(**data)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "ReproArtifact":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def replay_artifact(
    artifact: ReproArtifact,
) -> Tuple[ChaosReport, List[TraceEvent], bool]:
    """Re-execute a reproducer and check it reproduced the same bug.

    Returns ``(report, events, reproduced)`` where ``reproduced`` is
    True iff some replayed violation matches the artifact's expected
    one *exactly* — same invariant, same event index, same timestamp,
    same subject: the bit-for-bit determinism contract.
    """
    report, events = run_plan(artifact.plan, artifact.seed, artifact.hunt_config())
    expected = artifact.violation
    reproduced = any(v == expected for v in report.violations)
    return report, events, reproduced


# ----------------------------------------------------------------------
# The hunt loop
# ----------------------------------------------------------------------
@dataclass
class HuntResult:
    """What one hunt did: attempts made, and the find (if any)."""

    found: bool
    attempts: int
    hunt_seed: int
    artifact: Optional[ReproArtifact] = None
    original_rules: int = 0
    shrunk_rules: int = 0
    shrink_runs: int = 0
    #: All violations from the *original* (pre-shrink) violating run.
    violations: List[Violation] = field(default_factory=list)

    def summary_lines(self) -> List[str]:
        lines = [
            f"hunt seed={self.hunt_seed} attempts={self.attempts} "
            f"found={self.found}"
        ]
        if self.artifact is not None:
            lines.append(
                f"shrunk {self.original_rules} -> {self.shrunk_rules} rules "
                f"in {self.shrink_runs} replays"
            )
            lines.append(f"violation: {self.artifact.violation}")
            lines.extend("  " + line for line in self.artifact.plan.describe())
        return lines


def hunt(
    config: HuntConfig,
    hunt_seed: int = 0,
    *,
    tracer: Optional[object] = None,
) -> HuntResult:
    """Search seeded schedules for an invariant violation and shrink it.

    Deterministic end to end: attempt ``i`` samples its plan from
    ``Random(f"hunt:{hunt_seed}:{i}")`` and replays it with run seed
    ``hunt_seed + i``, so the same hunt seed always finds the same bug
    by the same route. Progress is emitted as ``hunt_attempt`` /
    ``shrink_step`` trace events when a tracer is supplied.
    """
    from repro.obs.events import HuntAttempt, ShrinkStep

    space = config.space()

    def emit(event: object) -> None:
        if tracer is not None:
            tracer.emit(event)  # type: ignore[attr-defined]

    for attempt in range(config.attempts):
        rng = random.Random(f"hunt:{hunt_seed}:{attempt}")
        plan = sample_plan(space, rng)
        run_seed = hunt_seed + attempt
        report, _ = run_plan(plan, run_seed, config)
        violations = report.violations
        emit(
            HuntAttempt(
                float(attempt),
                attempt=attempt,
                plan_seed=run_seed,
                rules=len(plan),
                violations=len(violations),
                invariant=violations[0].invariant if violations else "",
            )
        )
        if not violations:
            continue

        first = violations[0]
        signature = first.invariant

        def on_step(
            action: str, before: FaultPlan, after: FaultPlan, kept: bool
        ) -> None:
            emit(
                ShrinkStep(
                    float(attempt),
                    action=action,
                    rules_before=len(before),
                    rules_after=len(after),
                    kept=kept,
                )
            )

        shrunk, runs = shrink(
            plan, run_seed, config, signature, on_step=on_step
        )
        # Pin the expected violation to the shrunk plan's own replay.
        final_report, _ = run_plan(shrunk, run_seed, config)
        final_violations = final_report.violations
        expected = next(
            (v for v in final_violations if v.invariant == signature),
            final_violations[0] if final_violations else first,
        )
        artifact = ReproArtifact(
            scenario=config.scenario,
            seed=run_seed,
            plan=shrunk,
            violation=expected,
            config_overrides=config.overrides_dict,
            horizon_ms=config.horizon_ms,
            n_clients=config.n_clients,
            top_n=config.top_n,
            shards=config.shards,
            replicas=config.replicas,
            hunt_seed=hunt_seed,
        )
        return HuntResult(
            found=True,
            attempts=attempt + 1,
            hunt_seed=hunt_seed,
            artifact=artifact,
            original_rules=len(plan),
            shrunk_rules=len(shrunk),
            shrink_runs=runs,
            violations=violations,
        )
    return HuntResult(found=False, attempts=config.attempts, hunt_seed=hunt_seed)
