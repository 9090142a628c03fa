"""Chaos scenarios and the one runner that drives them.

A :class:`ChaosScenario` is a frozen description of a chaos world: where
the edge nodes and clients sit, how many manager shards and replicas
stand behind them, which shards a plan may take down, and the default
seeded plan for a horizon. There are exactly two — :data:`CANONICAL`
(every fault family the paper's environment can throw at the protocol:
message loss/lag, an asymmetric partition, a crash *with restart*, a
Central Manager outage and a gray node) and :func:`controlplane`
(shard-targeted primary outages over a metro-scale spread) — keyed in
:data:`SCENARIOS` by the names a ``ReproArtifact`` stores.

:func:`run_chaos` replays a scenario's plan (or any other
:class:`FaultPlan`) on one of two backends:

- ``"sim"`` — the simulator; deterministic: the same seed produces the
  identical trace-event sequence;
- ``"live"`` — a loopback :class:`LocalCluster`, where a
  :class:`ChaosController` executes the node-level actions on a scaled
  wall clock and the message-level rules gate real socket I/O.

Either way it returns a :class:`ChaosReport` whose
:attr:`ChaosReport.problems` list is empty exactly when the recovery
invariants hold: every client re-attached to an alive node by the end
of the (fault-free) tail window, covered failovers used the backup
list, and no admission state is stranded (no node believes a user is
attached who has moved on, and vice versa). A plan that takes shards
down additionally owes a standby promotion inside the failure-detection
budget. The chaos-parity test asserts both backends produce a clean
report from the same plan.
"""

from __future__ import annotations

import asyncio
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.controlplane.sharding import DEFAULT_SHARD_PRECISION, ShardMap
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    FaultPlan,
    GrayNode,
    ManagerOutage,
    MessageFault,
    NodeCrash,
    Partition,
    Window,
)
from repro.geo.geohash import encode_point
from repro.geo.point import GeoPoint
from repro.net.topology import EndpointSpec
from repro.nodes.hardware import VOLUNTEER_PROFILES
from repro.obs.events import FaultInjected, ManagerPromote, TraceEvent
from repro.verify import (
    AttachmentView,
    Violation,
    check_attachment_view,
    check_events,
)
from repro.world import World, WorldNode, WorldUser

__all__ = [
    "ChaosReport",
    "ChaosController",
    "ChaosScenario",
    "CANONICAL",
    "SCENARIOS",
    "chaos_plan",
    "controlplane",
    "controlplane_chaos_plan",
    "run_chaos",
]


# ----------------------------------------------------------------------
# The canonical plan
# ----------------------------------------------------------------------
def chaos_plan(
    edge_ids: Sequence[str], horizon_ms: float = 20_000.0
) -> FaultPlan:
    """The standard all-families chaos schedule over ``horizon_ms``.

    Needs at least two edge ids: the first crashes and restarts, the
    second gets partitioned from every user, and the last runs gray.
    The final 20% of the horizon is fault-free — the settle window the
    recovery invariants are checked against.
    """
    if len(edge_ids) < 2:
        raise ValueError("chaos_plan needs at least two edge ids")
    h = horizon_ms
    return FaultPlan(
        message_faults=(
            MessageFault(
                "frame-loss",
                Window(0.10 * h, 0.55 * h),
                src="user-*",
                ops=("frame",),
                drop_p=0.15,
            ),
            MessageFault(
                "frame-lag",
                Window(0.10 * h, 0.55 * h),
                src="user-*",
                ops=("frame",),
                delay_ms=40.0,
                delay_jitter_ms=20.0,
                delay_p=0.3,
            ),
        ),
        partitions=(
            Partition("edge-cut", "user-*", edge_ids[1], Window(0.15 * h, 0.35 * h)),
        ),
        crashes=(
            NodeCrash("crash", edge_ids[0], 0.40 * h, restart_at_ms=0.70 * h),
        ),
        outages=(ManagerOutage("mgr-down", Window(0.45 * h, 0.65 * h)),),
        gray_nodes=(
            GrayNode("gray", edge_ids[-1], Window(0.55 * h, 0.80 * h), slowdown=6.0),
        ),
    )


# ----------------------------------------------------------------------
# The shared report
# ----------------------------------------------------------------------
@dataclass
class ChaosReport:
    """What one chaos run did and whether the system recovered."""

    scenario: str
    backend: str
    seed: int
    injected: Dict[str, int] = field(default_factory=dict)
    event_counts: Dict[str, int] = field(default_factory=dict)
    frames_completed: int = 0
    frames_lost: int = 0
    #: Recovery-invariant violations; empty == the run is clean.
    problems: List[str] = field(default_factory=list)
    #: Unretrieved task exceptions collected from the event loop (live
    #: backend only) — non-empty fails the CI chaos smoke.
    task_errors: List[str] = field(default_factory=list)
    #: Streaming-invariant violations from :func:`repro.verify.check_events`
    #: over the run's trace. Kept separate from ``problems`` so
    #: :attr:`ok` — and every metric built on it — keeps its original
    #: end-state meaning; the chaos CLI fails the run on either.
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems and not self.task_errors

    def summary_lines(self) -> List[str]:
        lines = [
            f"scenario={self.scenario} backend={self.backend} seed={self.seed} "
            f"frames={self.frames_completed} lost={self.frames_lost}",
            "injected: "
            + (
                ", ".join(f"{k}={v}" for k, v in sorted(self.injected.items()))
                or "none"
            ),
            "recovery: "
            + ", ".join(
                f"{k}={self.event_counts.get(k, 0)}"
                for k in (
                    "covered_failover",
                    "uncovered_failure",
                    "degraded_fallback",
                    "node_restart",
                    "breaker_transition",
                    "retry_scheduled",
                )
            ),
        ]
        control = ("shard_route", "shard_merge", "manager_promote", "registry_handoff")
        if any(k in self.event_counts for k in control):
            lines.append(
                "control plane: "
                + ", ".join(f"{k}={self.event_counts.get(k, 0)}" for k in control)
            )
        if self.problems:
            lines.append("PROBLEMS: " + "; ".join(self.problems))
        if self.task_errors:
            lines.append("TASK ERRORS: " + "; ".join(self.task_errors))
        if self.violations:
            lines.append(
                "STREAMING VIOLATIONS: "
                + "; ".join(str(v) for v in self.violations)
            )
        if self.ok and not self.violations:
            lines.append("all recovery invariants hold")
        return lines


# ----------------------------------------------------------------------
# Control-plane chaos (shard-targeted manager faults)
# ----------------------------------------------------------------------
def controlplane_chaos_plan(
    shard_targets: Sequence[int],
    edge_ids: Sequence[str],
    horizon_ms: float = 20_000.0,
) -> FaultPlan:
    """Shard-targeted control-plane chaos over ``horizon_ms``.

    One staggered primary outage per distinct targeted shard — long
    enough to outlast the failure-detection window, so each exercises
    standby promotion rather than a silent primary resume — layered
    over the usual node-level families (an edge crash with restart, a
    user<->edge partition, frame loss). The final 20% of the horizon is
    fault-free: the settle window the recovery invariants are checked
    against.
    """
    if not shard_targets:
        raise ValueError("controlplane_chaos_plan needs at least one target shard")
    if len(edge_ids) < 2:
        raise ValueError("controlplane_chaos_plan needs at least two edge ids")
    h = horizon_ms
    targets = sorted(set(shard_targets))
    # Outages live inside [0.25h, 0.80h): staggered, one slot per shard,
    # active for 80% of the slot so consecutive outages never overlap.
    span = 0.55 * h
    slot = span / len(targets)
    outages = tuple(
        ManagerOutage(
            f"shard-{shard}-down",
            Window(0.25 * h + i * slot, 0.25 * h + (i + 0.8) * slot),
            shard=shard,
        )
        for i, shard in enumerate(targets)
    )
    return FaultPlan(
        message_faults=(
            MessageFault(
                "cp-frame-loss",
                Window(0.10 * h, 0.60 * h),
                src="user-*",
                ops=("frame",),
                drop_p=0.10,
            ),
        ),
        partitions=(
            Partition(
                "cp-edge-cut", "user-*", edge_ids[1], Window(0.12 * h, 0.28 * h)
            ),
        ),
        crashes=(
            NodeCrash("cp-crash", edge_ids[0], 0.35 * h, restart_at_ms=0.65 * h),
        ),
        outages=outages,
    )


# ----------------------------------------------------------------------
# The scenarios
# ----------------------------------------------------------------------
_CENTER = GeoPoint(44.97, -93.25)
_EDGE_IDS = ("edge-a", "edge-b", "edge-c", "edge-d", "edge-e")


@dataclass(frozen=True)
class ChaosScenario:
    """One chaos world: its layout, its control plane, its default plan."""

    #: The key a ``ReproArtifact`` stores (see :data:`SCENARIOS`).
    name: str
    #: Edge nodes as (north, east) km offsets from the metro center;
    #: node ``i`` is ``edge-a``, ``edge-b``, ... running volunteer
    #: profile ``i``.
    node_offsets_km: Tuple[Tuple[float, float], ...]
    n_clients: int
    shards: int = 1
    replicas: int = 1
    #: Shards a plan may take down: those owning at least one edge node
    #: (ownership is a pure function of node geohash and shard map, so
    #: known before any system exists). Empty: whole-manager outages only.
    shard_targets: Tuple[int, ...] = ()

    @property
    def edge_ids(self) -> Tuple[str, ...]:
        return _EDGE_IDS[: len(self.node_offsets_km)]

    def world(self, n_clients: int) -> World:
        """The edge nodes plus the first ``n_clients`` users (``user-01``
        ..), every endpoint a bare position — what both backends run."""
        nodes = [
            WorldNode(
                _EDGE_IDS[i],
                VOLUNTEER_PROFILES[i % len(VOLUNTEER_PROFILES)],
                EndpointSpec(_CENTER.offset_km(north, east)),
            )
            for i, (north, east) in enumerate(self.node_offsets_km)
        ]
        users = [
            WorldUser(
                f"user-{i + 1:02d}",
                EndpointSpec(_CENTER.offset_km(-0.5 * i, 0.5 * i)),
            )
            for i in range(n_clients)
        ]
        return World(tuple(nodes), tuple(users))

    def default_plan(self, horizon_ms: float) -> FaultPlan:
        """The scenario's canonical schedule over its own edge ids."""
        if self.shard_targets:
            return controlplane_chaos_plan(
                self.shard_targets, self.edge_ids, horizon_ms
            )
        return chaos_plan(self.edge_ids, horizon_ms)


CANONICAL = ChaosScenario(
    "canonical", node_offsets_km=((1.0, -1.0), (2.0, 0.0), (3.0, 1.0)), n_clients=2
)


def controlplane(shards: int = 2, replicas: int = 2) -> ChaosScenario:
    """A ``shards x replicas`` control plane over a metro-scale spread
    (tens of km, so the population can straddle precision-4 shard
    cells; whether it does is seed-independent)."""
    offsets = ((-24.0, -18.0), (-10.0, 6.0), (0.0, 0.0), (12.0, -8.0), (24.0, 16.0))
    scenario = ChaosScenario(
        "controlplane", offsets, n_clients=3, shards=shards, replicas=replicas
    )
    shard_map = ShardMap(count=shards, precision=DEFAULT_SHARD_PRECISION)
    owners = {
        shard_map.owner_of_geohash(
            encode_point(node.spec.point, precision=DEFAULT_SHARD_PRECISION)
        )
        for node in scenario.world(0).nodes
    }
    return replace(scenario, shard_targets=tuple(sorted(owners)))


#: Scenario name -> ``factory(shards, replicas)``.
SCENARIOS: Dict[str, Callable[[int, int], ChaosScenario]] = {
    "canonical": lambda shards, replicas: CANONICAL,
    "controlplane": controlplane,
}


def _check_controlplane_invariants(
    events: Sequence[TraceEvent], targets: Sequence[int], replicas: int, budget_ms: float
) -> List[str]:
    """Every targeted shard went down and — where it has a standby —
    promoted one inside the failure-detection budget."""
    problems: List[str] = []
    starts: Dict[int, float] = {}
    promotes: Dict[int, float] = {}
    for event in events:
        if isinstance(event, ManagerPromote):
            promotes.setdefault(event.shard, event.t_ms)
        elif (
            isinstance(event, FaultInjected)
            and event.kind == "outage_start"
            and event.dst.startswith("shard:")
        ):
            starts.setdefault(int(event.dst.split(":", 1)[1]), event.t_ms)
    for shard in targets:
        t0 = starts.get(shard)
        if t0 is None:
            problems.append(f"no outage_start recorded for shard {shard}")
            continue
        if replicas < 2:
            continue  # nothing to promote to
        t_promote = promotes.get(shard)
        if t_promote is None:
            problems.append(
                f"shard {shard}: primary lost but no standby promoted"
            )
        elif t_promote - t0 > budget_ms + 1.0:
            problems.append(
                f"shard {shard}: promotion took {t_promote - t0:.0f}ms "
                f"(budget {budget_ms:.0f}ms)"
            )
    return problems


# ----------------------------------------------------------------------
# Live backend
# ----------------------------------------------------------------------
class ChaosController:
    """Executes a fault plan against a running :class:`LocalCluster`.

    Plan time maps onto the wall clock at ``plan_ms_per_s`` plan
    milliseconds per wall second (e.g. ``5000`` replays a 20 s plan in
    4 s). The controller wires the injector into every client and edge
    (message-level gating) and runs the node-level actions — kill,
    restart, gray dial, manager outage — as a background task.
    """

    def __init__(
        self,
        cluster: object,
        injector: FaultInjector,
        *,
        plan_ms_per_s: float = 1_000.0,
    ) -> None:
        if plan_ms_per_s <= 0:
            raise ValueError(f"plan_ms_per_s must be positive: {plan_ms_per_s}")
        self.cluster = cluster
        self.injector = injector
        self.plan_ms_per_s = plan_ms_per_s
        self._epoch = 0.0
        self._task: Optional[asyncio.Task] = None

    # -- plan-time clock ------------------------------------------------
    def now_ms(self) -> float:
        return (time.monotonic() - self._epoch) * self.plan_ms_per_s

    def _wire(self, actor: object) -> None:
        actor.faults = self.injector  # type: ignore[attr-defined]
        actor.fault_clock = self.now_ms  # type: ignore[attr-defined]
        if hasattr(actor, "fault_scale"):
            # wall-ms slept per injected plan-ms of delay
            actor.fault_scale = 1_000.0 / self.plan_ms_per_s  # type: ignore[attr-defined]

    def start(self) -> None:
        """Stamp the epoch, wire every actor, launch the action script."""
        self._epoch = time.monotonic()
        self.injector.event_clock = self.cluster.tracer.now  # type: ignore[attr-defined]
        for client in self.cluster.clients:  # type: ignore[attr-defined]
            self._wire(client)
        for edge in self.cluster.edges:  # type: ignore[attr-defined]
            self._wire(edge)
        self._task = asyncio.ensure_future(self._run_actions())

    async def wait(self) -> None:
        """Block until every scheduled node action has run."""
        if self._task is not None:
            await self._task
            self._task = None

    # -- node-level actions --------------------------------------------
    async def _run_actions(self) -> None:
        from repro.obs.events import FaultInjected

        tracer = self.cluster.tracer  # type: ignore[attr-defined]
        for action in self.injector.node_actions():
            wall_deadline = self._epoch + action.t_ms / self.plan_ms_per_s
            delay = wall_deadline - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            kind = action.kind
            # run_chaos refuses shard-targeted plans on this backend.
            assert action.shard is None, action
            tracer.emit(
                FaultInjected(
                    tracer.now(), action.rule_id, kind, dst=action.node_id
                )
            )
            self.injector.injected[kind] += 1
            if kind == "crash":
                await self.cluster.kill_edge(action.node_id)  # type: ignore[attr-defined]
            elif kind == "restart":
                # The new incarnation inherits its predecessor's wiring.
                await self.cluster.restart_edge(action.node_id)  # type: ignore[attr-defined]
            elif kind == "gray_start":
                self.cluster.edge_by_id(action.node_id).set_slowdown(  # type: ignore[attr-defined]
                    action.factor
                )
            elif kind == "gray_end":
                self.cluster.edge_by_id(action.node_id).set_slowdown(1.0)  # type: ignore[attr-defined]
            elif kind == "outage_start":
                await self.cluster.stop_manager()  # type: ignore[attr-defined]
            elif kind == "outage_end":
                await self.cluster.restart_manager()  # type: ignore[attr-defined]



# Live plan time runs at 5 000 plan-ms per wall second (a 20 s plan in
# 4 s) against a cluster whose application clock is scaled by 0.05.
_LIVE_PLAN_MS_PER_S = 5_000.0
_LIVE_TIME_SCALE = 0.05


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
@dataclass
class _Run:
    """What an executor hands the report tail."""

    events: List[TraceEvent]
    injected: Dict[str, int]
    #: ``(completed, lost)`` per client.
    frames: List[Tuple[int, int]]
    view: AttachmentView
    #: Detection window a shard promotion must fit in (plan-time ms).
    promotion_budget_ms: float = 0.0
    task_errors: List[str] = field(default_factory=list)


def _run_sim(
    scenario: ChaosScenario,
    plan: Optional[FaultPlan],
    seed: int,
    horizon_ms: float,
    n_clients: int,
    top_n: int,
    config_overrides: Optional[Dict[str, object]],
) -> _Run:
    from repro.core.client import EdgeClient
    from repro.core.config import SystemConfig
    from repro.core.system import EdgeSystem
    from repro.obs.tracer import Tracer

    injector = FaultInjector(
        plan if plan is not None else scenario.default_plan(horizon_ms), seed=seed
    )
    tracer = Tracer()
    config = SystemConfig(
        seed=seed,
        top_n=top_n,
        probing_period_ms=3_000.0,
        # Longer than the plans' worst silent window (the 4 s
        # partition), so only genuinely stranded users expire.
        attachment_lease_ms=6_000.0,
        control_plane_shards=scenario.shards,
        control_plane_replicas=scenario.replicas,
    )
    if config_overrides:
        config = replace(config, **config_overrides)  # type: ignore[arg-type]
    world = scenario.world(n_clients)
    system = EdgeSystem(config, world=world, trace=tracer, faults=injector)
    clients = [EdgeClient(system, user_id) for user_id in world.user_ids]
    for client in clients:
        system.add_client(client)

    system.run_for(horizon_ms)

    return _Run(
        events=list(tracer.events()),
        injected=dict(injector.injected),
        frames=[(c.stats.frames_completed, c.stats.frames_lost) for c in clients],
        view=AttachmentView(
            client_edges={c.user_id: c.current_edge for c in clients},
            node_alive={n: node.alive for n, node in system.nodes.items()},
            node_attached={n: set(node.attached) for n, node in system.nodes.items()},
        ),
        promotion_budget_ms=config.failure_detection_ms,
    )


async def _run_live(
    scenario: ChaosScenario,
    plan: Optional[FaultPlan],
    seed: int,
    horizon_ms: float,
    n_clients: int,
    top_n: int,
) -> _Run:
    """Every unretrieved task exception and loop error is captured into
    ``task_errors`` — the hardened runtime must absorb chaos without
    leaking exceptions into the event loop. Actions scheduled past
    ``horizon_ms`` still run: the controller drains the full action
    script before teardown."""
    from repro.obs.tracer import Tracer
    from repro.runtime.launcher import LocalCluster
    from repro.runtime.protocol import RetryPolicy

    task_errors: List[str] = []
    loop = asyncio.get_running_loop()
    previous_handler = loop.get_exception_handler()

    def handler(loop: asyncio.AbstractEventLoop, context: dict) -> None:
        task_errors.append(str(context.get("exception") or context.get("message")))

    loop.set_exception_handler(handler)

    tracer = Tracer()
    cluster = LocalCluster(
        scenario.world(n_clients),
        time_scale=_LIVE_TIME_SCALE,
        heartbeat_period_s=0.1,
        top_n=top_n,
        tracer=tracer,
        monitor_period_s=0.25,
        attachment_lease_s=0.8,
    )
    try:
        await cluster.start()
        for client in cluster.clients:
            # Tight budgets: chaos runs fail over in milliseconds, not
            # after stacked 5 s timeouts.
            client.request_timeout = 0.5
            client.retry_policy = RetryPolicy(
                max_attempts=3, budget_s=0.6, base_delay_s=0.02, max_delay_s=0.1
            )
            client.breaker_reset_s = 0.4
        if plan is None:
            plan = scenario.default_plan(horizon_ms)
        injector = FaultInjector(plan, seed=seed, tracer=tracer)
        controller = ChaosController(
            cluster, injector, plan_ms_per_s=_LIVE_PLAN_MS_PER_S
        )
        controller.start()

        async def client_loop(client: object) -> Tuple[int, int]:
            completed = lost = 0
            try:
                await client.select_and_join()  # type: ignore[attr-defined]
            except RuntimeError:
                pass
            # Stream 25% past the (fault-free-tailed) plan horizon:
            # the extra beats keep legitimate attachment leases fresh
            # while entries stranded by chaos idle out and expire.
            while controller.now_ms() < horizon_ms * 1.25:
                try:
                    latency = await client.offload_frame()  # type: ignore[attr-defined]
                    if latency is None:
                        lost += 1
                    else:
                        completed += 1
                except RuntimeError:
                    # Unattached (or every candidate refused): keep
                    # retrying the selection round until one lands.
                    await asyncio.sleep(0.05)
                    try:
                        await client.select_and_join()  # type: ignore[attr-defined]
                    except RuntimeError:
                        pass
                await asyncio.sleep(0.03)
            return completed, lost

        frames = await asyncio.gather(*(client_loop(c) for c in cluster.clients))
        await controller.wait()
        # Re-attach anyone chaos left dangling — the live equivalent of
        # the sim's fault-free settle window.
        for client in cluster.clients:
            if client.current_edge is None:
                try:
                    await client.select_and_join()
                except RuntimeError:
                    pass
        run = _Run(
            events=list(tracer.events()),
            injected=dict(injector.injected),
            frames=list(frames),
            view=AttachmentView(
                client_edges={c.user_id: c.current_edge for c in cluster.clients},
                node_alive={e.node_id: not e._dead for e in cluster.edges},
                node_attached={e.node_id: set(e.attached) for e in cluster.edges},
            ),
            task_errors=task_errors,
        )
    finally:
        try:
            await cluster.stop()
        finally:
            loop.set_exception_handler(previous_handler)
    # Give cancelled tasks a beat to finalize before draining errors.
    await asyncio.sleep(0)
    return run


def run_chaos(
    scenario: ChaosScenario,
    *,
    backend: str = "sim",
    seed: int = 0,
    horizon_ms: float = 20_000.0,
    plan: Optional[FaultPlan] = None,
    n_clients: Optional[int] = None,
    top_n: int = 3,
    config_overrides: Optional[Dict[str, object]] = None,
) -> Tuple[ChaosReport, List[TraceEvent]]:
    """Replay ``plan`` (default: the scenario's own) on one backend.

    Returns the report plus the full trace-event list (the parity tests
    compare sequences across runs for determinism). ``n_clients``
    defaults to the scenario's population. ``top_n`` is the selection
    policy's backup breadth — the knob the chaos_matrix sweep crosses
    against fault families (more backups = more covered failovers under
    crash/partition faults, per Fig. 10(b)). ``config_overrides``
    patches arbitrary :class:`SystemConfig` fields on top of the
    scenario defaults — the schedule search uses it to hunt against
    deliberately weakened configurations (e.g. a huge
    ``failure_detection_ms``) while still replaying bit-identically.

    Raises:
        ValueError: before anything boots, for a combination no
            executor can honour — an unknown backend, an outage of a
            shard the scenario does not have, the live backend with a
            shard-targeted outage (its cluster runs one manager) or
            with ``SystemConfig`` overrides (it has no such config).
    """
    targets = list(scenario.shard_targets) if plan is None else plan.shard_targets()
    if backend not in ("sim", "live"):
        raise ValueError(f"unknown backend: {backend!r}")
    if backend == "live" and targets:
        raise ValueError(
            "shard-targeted outages run on the sim backend only: the live "
            "cluster runs one manager, with no shard to take down"
        )
    if targets and targets[-1] >= scenario.shards:
        raise ValueError(
            f"plan targets shard {targets[-1]} of a {scenario.shards}-shard scenario"
        )
    if backend == "live" and config_overrides:
        raise ValueError("config_overrides patch SystemConfig: sim backend only")
    if n_clients is None:
        n_clients = scenario.n_clients
    if backend == "sim":
        run = _run_sim(
            scenario, plan, seed, horizon_ms, n_clients, top_n, config_overrides
        )
        # Sim traces are already in plan time.
        time_scale = 1.0
    else:
        run = asyncio.run(
            _run_live(scenario, plan, seed, horizon_ms, n_clients, top_n)
        )
        # Live traces are wall-clock: plan-time budgets shrink by the
        # replay speed-up before the streaming suite sees them.
        time_scale = 1_000.0 / _LIVE_PLAN_MS_PER_S

    report = ChaosReport(
        scenario=scenario.name,
        backend=backend,
        seed=seed,
        injected=run.injected,
        event_counts=dict(Counter(e.type for e in run.events)),
        frames_completed=sum(completed for completed, _ in run.frames),
        frames_lost=sum(lost for _, lost in run.frames),
        problems=check_attachment_view(run.view),
        task_errors=run.task_errors,
    )
    expect_promotion: Optional[bool] = None
    if targets:
        # The control-plane checks apply because the plan takes shards
        # down, whichever scenario it runs over.
        report.problems += _check_controlplane_invariants(
            run.events, targets, scenario.replicas, run.promotion_budget_ms
        )
        if report.frames_completed == 0:
            report.problems.append("no client completed a single frame")
        expect_promotion = scenario.replicas >= 2
    report.violations = list(
        check_events(
            run.events, time_scale=time_scale, expect_promotion=expect_promotion
        )
    )
    return report, run.events
