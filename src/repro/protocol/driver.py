"""One effect interpreter per protocol role, shared by both backends.

A machine decides; a *driver* does what it asks. :class:`ClientDriver`
interprets a :class:`~repro.protocol.selection.SelectionMachine` (the
client's Algorithm 2 and §IV-E failover walk), :class:`EdgeDriver`
an :class:`~repro.protocol.admission.AdmissionMachine` (the Table I
node APIs and Algorithm 1), and :class:`ManagerDriver` the Central
Manager's :class:`~repro.protocol.global_select.GlobalSelectionMachine`
(§IV-A/B). Each dispatches its effects in exactly one place, for the
simulated backend (``repro.core``) and the live one (``repro.runtime``,
``repro.controlplane.live_driver``) alike; a backend subclasses the
driver and supplies only transport and physics through a few hooks.

Every I/O effect is completed by feeding its result
:class:`~repro.protocol.events.ProtocolEvent` back through
:meth:`ClientDriver._feed`: the sim does it from the kernel callback it
scheduled for the reply, the live client from the task that ran the
exchange. Timers (the retry round, the delayed join-triggered test
workload, the manager's detection window) go through one
``_call_later`` hook on both backends.

The driver also owns what both backends used to keep in two copies:
the client's :class:`ClientStats`, the probe outcome and join verdict it
builds from a reply, the links it prunes when the backup list moves;
the edge's last-seen times, the coalesced test-workload runs, the
performance-monitor feed, lease expiry and the memoised status geohash;
the manager's replica sets and its one promote / rejoin path.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Generic, List, Optional, Tuple, TypeVar

from repro.geo import geohash as gh
from repro.messages import JoinReply, NodeStatus, ProbeOutcome, ProbeReply
from repro.obs.events import (
    AttachmentExpired,
    ManagerPromote,
    ProbeAnswered,
    ProbeSent,
    RegistryHandoff,
    TestWorkloadInvoked,
    UncoveredFailure,
)
from repro.nodes.processing import analytic_sojourn_ms
from repro.protocol.admission import AdmissionConfig, AdmissionMachine
from repro.protocol.effects import (
    Attached,
    Effect,
    EmitTrace,
    FlushBacklog,
    NodeExpired,
    NodeOnline,
    ProbeCandidates,
    ReplyCandidates,
    ReplyJoin,
    ReplyPartialCandidates,
    ReplyProbe,
    ScheduleTestWorkload,
    SendDiscovery,
    SendFailoverJoin,
    SendJoin,
    SendLeave,
    StartTimer,
    UpdateBackups,
)
from repro.protocol.events import (
    EdgeFailed,
    JoinRequested,
    JoinResult,
    LeaveRequested,
    MonitorSample,
    ProbeRequested,
    ProtocolEvent,
    RoundStarted,
    TestWorkloadCompleted,
    UnexpectedJoinRequested,
)
from repro.protocol.failure_monitor import FailureMonitor
from repro.protocol.selection import SelectionConfig, SelectionMachine

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.controlplane.replication import ReplicaSet
    from repro.protocol.global_select import GlobalSelectionMachine
    from repro.geo.point import GeoPoint
    from repro.nodes.hardware import HardwareProfile
    from repro.obs.tracer import Tracer
    from repro.policy.base import SelectionPolicy

__all__ = ["ClientStats", "ClientDriver", "EdgeDriver", "ManagerDriver"]


def _machine_state(name: str) -> Any:
    """A property that reads and writes ``self._machine.<name>``: the
    machine's state, exposed on its driver for experiments, baselines
    and controllers."""
    return property(
        lambda self: getattr(self._machine, name),
        lambda self, value: setattr(self._machine, name, value),
    )


@dataclass
class ClientStats:
    """Per-client counters surfaced to experiments.

    Both backends keep the selection counters; the frame counters and
    ``latencies_ms`` are the simulated client's (the live one returns
    each frame's latency from ``offload_frame()`` instead).
    """

    frames_sent: int = 0
    frames_completed: int = 0
    frames_lost: int = 0
    probes_sent: int = 0
    discovery_queries: int = 0
    joins_accepted: int = 0
    joins_rejected: int = 0
    switches: int = 0
    covered_failovers: int = 0
    uncovered_failures: int = 0
    latencies_ms: List[float] = field(default_factory=list)

    @property
    def mean_latency_ms(self) -> float:
        if not self.latencies_ms:
            raise ValueError("no completed frames yet")
        return sum(self.latencies_ms) / len(self.latencies_ms)


class ClientDriver:
    """The client role: runs a :class:`SelectionMachine`'s effects.

    A backend supplies the transport as methods: ``_now`` (its clock, in
    ms); ``_send_discovery`` (feed ``CandidatesReceived`` or
    ``DiscoveryFailed``); ``_probe_candidates`` (feed one
    ``ProbesCompleted``); ``_send_join`` (end in :meth:`_join_answered`);
    ``_send_failover_join`` (feed ``FailoverResult``); ``_send_leave``
    (nothing comes back); ``_ensure_link``, ``_flush_backlog`` and
    ``_call_later``. It overrides ``_drop_link`` when closing a link is
    more than forgetting it.

    Args:
        user_id: the client's id.
        policy: this client's own local selection policy.
        config: the machine's protocol constants.
        tracer: where decision and probe events go.
        proactive_connections: keep standing links to the backups
            (False reproduces the reactive "re-connect" baseline).
    """

    _now: Callable[[], float]
    _send_discovery: Callable[[int, Tuple[str, ...]], None]
    _probe_candidates: Callable[[Tuple[str, ...]], None]
    _send_join: Callable[[ProbeOutcome], None]
    _send_failover_join: Callable[[str], None]
    _send_leave: Callable[[str, str], None]
    _ensure_link: Callable[[str, float], None]
    _flush_backlog: Callable[[], None]
    _call_later: Callable[[float, Callable[[], None], str], None]

    def __init__(
        self,
        user_id: str,
        policy: "SelectionPolicy",
        config: SelectionConfig,
        *,
        tracer: "Tracer",
        proactive_connections: bool = True,
    ) -> None:
        self.user_id = user_id
        self.tracer = tracer
        self.proactive_connections = proactive_connections
        #: The sans-IO protocol core this driver executes. It keeps its
        #: guard, so the guard must not hold this driver (a cycle).
        self._machine = SelectionMachine(
            user_id, policy, config, detail_guard=lambda: tracer.enabled
        )
        #: node id -> this backend's link to it (current edge and backups).
        self.links: Dict[str, Any] = {}
        self.stats = ClientStats()
        self._stopped = False
        self._lbl_retry = user_id + ".retry"

    # ------------------------------------------------------------------
    # Protocol-core state, exposed on the driver
    # ------------------------------------------------------------------
    current_edge = _machine_state("current_edge")
    top_n = _machine_state("top_n")

    @property
    def policy(self) -> "SelectionPolicy":
        return self._machine.policy

    @property
    def failure_monitor(self) -> FailureMonitor:
        return self._machine.monitor

    @property
    def backups(self) -> List[str]:
        return list(self._machine.monitor.backups)

    @property
    def attached(self) -> bool:
        return self._machine.current_edge is not None

    def _drop_link(self, node_id: str) -> None:
        self.links.pop(node_id, None)

    # ------------------------------------------------------------------
    # Protocol-event feed + effect execution
    # ------------------------------------------------------------------
    def _begin_selection_round(self) -> None:
        if self._stopped or self._machine.round_in_progress:
            return
        self._feed(RoundStarted(self._now()))

    def _feed(self, event: ProtocolEvent) -> None:
        """Advance the machine and execute what it asks for, in order."""
        if self._stopped:
            return
        stats = self.stats
        for effect in self._machine.handle(event):
            if isinstance(effect, EmitTrace):
                self.tracer.emit(effect.event)
                if isinstance(effect.event, UncoveredFailure):
                    stats.uncovered_failures += 1
            elif isinstance(effect, SendDiscovery):
                stats.discovery_queries += 1
                self._send_discovery(effect.top_n, effect.exclude)
            elif isinstance(effect, ProbeCandidates):
                self._probe_candidates(effect.node_ids)
            elif isinstance(effect, SendJoin):
                self._send_join(effect.outcome)
            elif isinstance(effect, SendLeave):
                self._send_leave(effect.node_id, effect.reason)
            elif isinstance(effect, SendFailoverJoin):
                self._send_failover_join(effect.node_id)
            elif isinstance(effect, Attached):
                if effect.via == "failover":
                    stats.covered_failovers += 1
                elif effect.previous is not None and (
                    effect.previous != effect.node_id
                ):
                    stats.switches += 1
                self._ensure_link(effect.node_id, effect.rtt_ms)
            elif isinstance(effect, UpdateBackups):
                if self.proactive_connections:
                    for outcome in effect.outcomes:
                        self._ensure_link(outcome.node_id, outcome.d_prop_ms)
                self._prune_links()
            elif isinstance(effect, FlushBacklog):
                self._flush_backlog()
            elif isinstance(effect, StartTimer):
                self._call_later(
                    effect.delay_ms, self._begin_selection_round, self._lbl_retry
                )
            else:  # pragma: no cover - forward-compatibility guard
                raise TypeError(f"unhandled effect {type(effect).__name__}")

    # ------------------------------------------------------------------
    # Replies, as the machine wants them
    # ------------------------------------------------------------------
    def _probe_sent(self, node_id: str) -> None:
        self.stats.probes_sent += 1
        self.tracer.emit(ProbeSent(self._now(), self.user_id, node_id))

    def _probe_answered(
        self,
        node_id: str,
        rtt_ms: float,
        reply: ProbeReply,
        probed_at_ms: float,
        answered_at_ms: float,
    ) -> ProbeOutcome:
        """One answered probe: trace it, and build what ranking reads."""
        if self.tracer.enabled:
            self.tracer.emit(
                ProbeAnswered(
                    answered_at_ms, self.user_id, node_id, rtt_ms, reply.what_if_ms
                )
            )
        return ProbeOutcome(
            node_id=node_id,
            d_prop_ms=rtt_ms,
            d_proc_ms=reply.what_if_ms,
            seq_num=reply.seq_num,
            attached_users=reply.attached_users,
            current_proc_ms=reply.current_proc_ms,
            stay_ms=reply.stay_ms or reply.what_if_ms,
            probed_at_ms=probed_at_ms,
        )

    def _join_answered(
        self, node_id: str, accepted: bool, node_alive: bool, attempted_at: float
    ) -> None:
        """A ``Join()`` verdict (a dead or unreachable node is not alive)."""
        if accepted:
            self.stats.joins_accepted += 1
        elif node_alive:
            self.stats.joins_rejected += 1
        self._feed(
            JoinResult(
                self._now(),
                node_id,
                accepted,
                attempted_at=attempted_at,
                node_alive=node_alive,
            )
        )

    # ------------------------------------------------------------------
    # Links and failures
    # ------------------------------------------------------------------
    def _prune_links(self) -> None:
        """Close links to nodes that are neither current nor backup."""
        keep = set(self._machine.monitor.backups)
        if self._machine.current_edge is not None:
            keep.add(self._machine.current_edge)
        for node_id in list(self.links):
            if node_id not in keep:
                self._drop_link(node_id)

    def observes_node(self, node_id: str) -> bool:
        """True if a link, the attachment or the backup list would let
        this client notice ``node_id`` failing."""
        return (
            node_id in self.links
            or node_id == self._machine.current_edge
            or node_id in self._machine.monitor.backups
        )

    def on_edge_failure(self, node_id: str) -> None:
        """The link to ``node_id`` broke: walk the backup list."""
        if self._stopped:
            return
        self._drop_link(node_id)
        self._feed(EdgeFailed(self._now(), node_id))


class EdgeDriver:
    """The edge role: runs an :class:`AdmissionMachine`'s effects and
    serves the Table I APIs.

    A backend supplies its physics: ``alive``; ``slowdown`` (the current
    service slowdown factor); ``_now`` (its clock, in ms);
    ``_call_later``; ``_start_test_frame`` (admit one synthetic frame
    to the real queue and call :meth:`_test_frame_done` when it leaves,
    or return False when the queue sheds it); the queue's
    ``_recent_mean_sojourn_ms`` and ``_idle_floor_ms``; and, for the
    heartbeat, ``_position`` (point and ISP) and ``_utilization``.

    Args:
        node_id: this node's id.
        profile: its hardware profile.
        config: the machine's protocol constants.
        tracer: where decision and cache events go.
        dedicated: advertised to the manager as dedicated infrastructure.
        test_delay_ms: how long a join-triggered test workload waits,
            so it measures the new user's frames already flowing.
    """

    alive: bool
    slowdown: float
    _now: Callable[[], float]
    _call_later: Callable[[float, Callable[[], None], str], None]
    _start_test_frame: Callable[[], bool]
    _recent_mean_sojourn_ms: Callable[[], Optional[float]]
    _idle_floor_ms: Callable[[], float]
    _position: Callable[[], Tuple["GeoPoint", Optional[str]]]
    _utilization: Callable[[], float]

    def __init__(
        self,
        node_id: str,
        profile: "HardwareProfile",
        config: AdmissionConfig,
        *,
        tracer: "Tracer",
        dedicated: bool,
        test_delay_ms: float,
    ) -> None:
        self.node_id = node_id
        self.profile = profile
        self.tracer = tracer
        self.dedicated = dedicated
        self._test_delay_ms = test_delay_ms
        #: The sans-IO admission core this driver executes. It keeps its
        #: callbacks, so they must not hold this driver (a cycle).
        driver = weakref.ref(self)
        self._machine = AdmissionMachine(
            node_id,
            config,
            initial_ms=profile.base_frame_ms,
            project=lambda fps, slowdown: driver()._project_sojourn(  # type: ignore[union-attr]
                fps, slowdown
            ),
            detail_guard=lambda: tracer.enabled,
        )
        # counters surfaced to experiments
        self.test_workload_invocations = 0
        self.probes_served = 0
        self.joins_accepted = 0
        self.joins_rejected = 0
        self._test_pending = False
        #: Last time (ms) each attached user showed signs of life (join
        #: grant or frame arrival) — drives the attachment lease.
        self._last_seen: Dict[str, float] = {}
        #: (point, its geohash): re-encoded when the point is replaced
        self._geohash: Optional[Tuple["GeoPoint", str]] = None
        self._lbl_testwl = node_id + ".testwl"

    # ------------------------------------------------------------------
    # Protocol-core state, exposed on the driver
    # ------------------------------------------------------------------
    seq_num = _machine_state("seq_num")
    attached = _machine_state("attached")
    what_if_ms = _machine_state("what_if_ms")
    stay_ms = _machine_state("stay_ms")

    def _project_sojourn(self, offered_fps: float, slowdown: float) -> float:
        """The machine's analytic sojourn projection for this hardware."""
        return analytic_sojourn_ms(self.profile, offered_fps, slowdown_factor=slowdown)

    # ------------------------------------------------------------------
    # Effect execution
    # ------------------------------------------------------------------
    def _handle(self, event: ProtocolEvent) -> Any:
        """Advance the machine, execute its side effects in order, and
        return the reply effect (if any)."""
        reply: Any = None
        for effect in self._machine.handle(event):
            if isinstance(effect, EmitTrace):
                self.tracer.emit(effect.event)
            elif isinstance(effect, ScheduleTestWorkload):
                if effect.delayed:
                    self._call_later(
                        self._test_delay_ms,
                        self._invoke_test_workload,
                        self._lbl_testwl,
                    )
                else:
                    self._invoke_test_workload()
            elif isinstance(effect, (ReplyProbe, ReplyJoin)):
                reply = effect
            else:  # pragma: no cover - forward-compatibility guard
                raise TypeError(f"unhandled effect {type(effect).__name__}")
        return reply

    # ------------------------------------------------------------------
    # Table I APIs
    # ------------------------------------------------------------------
    def process_probe(self) -> Optional[ProbeReply]:
        """``Process_probe()``: the cached what-if performance.

        A cache read only — "a large number of probing requests do not
        necessarily lead to more test workload invocations". None when
        the node is dead (the caller's probe just times out).
        """
        if not self.alive:
            return None
        self.probes_served += 1
        reply: ReplyProbe = self._handle(
            ProbeRequested(self._now(), recent_mean_ms=self._recent_mean_sojourn_ms())
        )
        return ProbeReply(
            node_id=self.node_id,
            what_if_ms=reply.what_if_ms,
            seq_num=reply.seq_num,
            attached_users=reply.attached_users,
            current_proc_ms=reply.current_proc_ms,
            stay_ms=reply.stay_ms,
        )

    def join(self, user_id: str, user_seq_num: int, fps: float) -> JoinReply:
        """``Join()`` with seqNum synchronization (Algorithm 1).

        Accepted only if the node state has not changed since the
        caller's probe. Acceptance is itself a state change: the seqNum
        increments and a delayed test-workload run is scheduled so the
        measurement sees the new user's frames.
        """
        now = self._now()
        reply: ReplyJoin = self._handle(JoinRequested(now, user_id, user_seq_num, fps))
        if reply.accepted:
            self.joins_accepted += 1
            self._last_seen[user_id] = now
        else:
            self.joins_rejected += 1
        return JoinReply(self.node_id, reply.accepted, reply.seq_num)

    def unexpected_join(self, user_id: str, fps: float) -> JoinReply:
        """``Unexpected_join()``: failover attach that cannot be rejected;
        refused only when this node is itself dead."""
        now = self._now()
        reply: ReplyJoin = self._handle(UnexpectedJoinRequested(now, user_id, fps))
        if reply.accepted:
            self.joins_accepted += 1
            self._last_seen[user_id] = now
        return JoinReply(self.node_id, reply.accepted, reply.seq_num)

    def leave(self, user_id: str) -> None:
        """``Leave()``: workload decrease — trigger type 2."""
        self._last_seen.pop(user_id, None)
        self._handle(LeaveRequested(self._now(), user_id))

    # ------------------------------------------------------------------
    # What-if test workload, performance monitor, lease
    # ------------------------------------------------------------------
    def _invoke_test_workload(self) -> None:
        """Run the synthetic single-frame test workload through the
        **real** frame queue; its sojourn comes back through
        :meth:`_test_frame_done`, and the machine folds it into the
        what-if cache (EWMA blend with the demand projection — DESIGN §5).

        Invocations are coalesced: while one is in flight, a trigger is
        satisfied by its result. A frame the queue sheds is no
        invocation (the cache keeps its pessimistic value).
        """
        if not self.alive or self._test_pending:
            return
        if not self._start_test_frame():
            return
        self.test_workload_invocations += 1
        self.tracer.emit(TestWorkloadInvoked(self._now(), self.node_id))
        self._test_pending = True

    def _test_frame_done(self, sojourn_ms: float) -> None:
        """The synthetic frame left the queue: feed its sojourn back."""
        self._test_pending = False
        self._handle(
            TestWorkloadCompleted(
                self._now(), sojourn_ms, slowdown_factor=self.slowdown
            )
        )

    def _performance_monitor_tick(self) -> None:
        """Trigger type 3: noticeable processing-time drift at constant
        users. The driver only samples the queue; the drift and idle
        decisions are the machine's."""
        if not self.alive:
            return
        self._handle(
            MonitorSample(
                self._now(),
                measured_ms=self._recent_mean_sojourn_ms(),
                idle_floor_ms=self._idle_floor_ms(),
            )
        )

    def _expire_stale_attachments(self, lease_ms: float) -> None:
        """Evict attached users whose frames stopped arriving.

        The cleanup path for a ``Leave()`` lost in transit (or skipped
        by a client that believed this node dead): without it a
        partition can strand admission state forever, inflating the
        what-if projection with ghost users. Expiry feeds the machine a
        plain ``LeaveRequested``, so the usual trigger-type-2 cache
        refresh happens.
        """
        if not self.alive:
            return
        now = self._now()
        for user_id in list(self._machine.attached):
            idle_ms = now - self._last_seen.get(user_id, now)
            if idle_ms < lease_ms:
                continue
            self._last_seen.pop(user_id, None)
            self.tracer.emit(AttachmentExpired(now, self.node_id, user_id, idle_ms))
            self._handle(LeaveRequested(now, user_id))

    # ------------------------------------------------------------------
    # Manager heartbeat
    # ------------------------------------------------------------------
    def status(self) -> NodeStatus:
        """Current status snapshot (what a heartbeat carries)."""
        point, isp = self._position()
        if self._geohash is None or self._geohash[0] is not point:
            self._geohash = (point, gh.encode_point(point, 9))
        return NodeStatus(
            node_id=self.node_id,
            lat=point.lat,
            lon=point.lon,
            geohash=self._geohash[1],
            cores=self.profile.cores,
            capacity_fps=self.profile.capacity_fps,
            attached_users=len(self._machine.attached),
            utilization=self._utilization(),
            dedicated=self.dedicated,
            isp=isp,
            reported_at_ms=self._now(),
        )


#: A shard's membership: a bare ``ReplicaSet`` on the live router, a
#: ``ReplicatedShard`` (machines included) in the sim.
_Members = TypeVar("_Members", bound="ReplicaSet")


class ManagerDriver(Generic[_Members]):
    """The Central Manager role: runs a :class:`GlobalSelectionMachine`'s
    effects and keeps one replica set per shard.

    The sim's ``CentralManager``, the live ``ManagerServer`` (one machine,
    no replica set) and the live ``RouterServer`` (replica sets whose
    machines are ``ManagerServer`` processes) subclass it. What a backend
    keeps beside the machine rides on no-op hooks: ``_node_expired``
    (the sim's WRR ledger, the live address book), ``_population_changed``
    (the live ``PopulationChanged`` trace), ``_replica_changed`` (the
    router's replica link) and ``_call_later`` (the sim's timer).
    ``_now`` is the tracer's clock unless a backend says otherwise.

    Args:
        shards: one replica set per shard (none for a lone manager).
        tracer: where promote and handoff events go.
        promotion_delay_ms: how long detection takes after a report
            (see :meth:`replica_unreachable`).
    """

    #: The ``manager_promote`` reason: what the backend's report means.
    _promote_reason = "unreachable"

    def __init__(
        self, shards: List[_Members], *, tracer: "Tracer", promotion_delay_ms: float = 0.0
    ) -> None:
        self.shards = shards
        self.tracer = tracer
        self.promotion_delay_ms = promotion_delay_ms
        self.queries_served = 0
        self.heartbeats_received = 0
        #: Heartbeats no replica stored: the owning shard had none alive.
        self.heartbeats_dropped = 0
        self.promotions = 0
        #: Node ids in the order they entered the registry, across all
        #: shards (in on a first heartbeat, out on expiry).
        self._arrivals: Dict[str, None] = {}

    def _now(self) -> float:
        return self.tracer.now()

    def _call_later(self, delay_ms: float, callback: Callable[[], None], label: str) -> None:
        raise NotImplementedError(f"{type(self).__name__} has no timer")

    def _node_expired(self, node_id: str) -> None:
        pass

    def _population_changed(self) -> None:
        pass

    def _replica_changed(self, shard: int, replica: int) -> None:
        pass

    # ------------------------------------------------------------------
    # Effect execution
    # ------------------------------------------------------------------
    def _step(self, machine: "GlobalSelectionMachine", event: ProtocolEvent) -> Any:
        """Advance ``machine`` by ``event``; return its reply (if any)."""
        return self._run_effects(machine.handle(event))

    def _run_effects(self, effects: List[Effect]) -> Any:
        """Execute registry effects in order; return the reply (if any)."""
        reply: Any = None
        changed = False
        for effect in effects:
            if isinstance(effect, NodeOnline):
                self._arrivals.setdefault(effect.node_id)
                changed = changed or effect.new
            elif isinstance(effect, NodeExpired):
                self._arrivals.pop(effect.node_id, None)
                changed = True
                self._node_expired(effect.node_id)
            elif isinstance(effect, (ReplyCandidates, ReplyPartialCandidates)):
                reply = effect
            else:  # pragma: no cover - forward-compatibility guard
                raise TypeError(f"unhandled effect {type(effect).__name__}")
        if changed:
            self._population_changed()
        return reply

    # ------------------------------------------------------------------
    # Failure detection, promotion, rejoin
    # ------------------------------------------------------------------
    def replica_unreachable(self, shard: int, replica: int) -> None:
        """The one failure input: ``replica`` of ``shard`` cannot be
        reached. It is marked down; if the shard is left without a
        serving primary, the lowest alive standby is promoted once
        detection is complete, ``promotion_delay_ms`` after the report.
        The sim reports an outage when it starts, so its delay is
        ``failure_detection_ms``; the router reports a failed RPC, which
        has already paid for detection, so its delay is zero."""
        members = self.shards[shard]
        members.mark_down(replica)
        self._replica_changed(shard, replica)
        if members.serving_index() is not None or not members.alive_replicas():
            return
        if self.promotion_delay_ms > 0:
            self._call_later(
                self.promotion_delay_ms,
                lambda: self._promote(shard),
                f"controlplane.promote.s{shard}",
            )
        else:
            self._promote(shard)

    def _promote(self, shard: int) -> None:
        members = self.shards[shard]
        if members.serving_index() is not None:
            return  # the primary came back inside the detection window
        replica = members.promote()
        if replica is None:
            return  # every replica down: the shard stays unavailable
        self.promotions += 1
        self.tracer.emit(
            ManagerPromote(self._now(), shard=shard, replica=replica, reason=self._promote_reason)
        )

    def rejoin_source(self, shard: int, replica: int) -> Optional[int]:
        """Where a returning ``replica`` is re-seeded from: the serving
        primary, if another replica serves; None if ``replica`` is itself
        the primary (it resumes as it was) or none serves."""
        serving = self.shards[shard].serving_index()
        return None if serving == replica else serving

    def replica_rejoined(
        self, shard: int, replica: int, source: Optional[int], entries: int
    ) -> None:
        """``replica`` is back, re-seeded with ``entries`` entries from
        ``source`` (:meth:`rejoin_source`). A shard left with no serving
        primary promotes again."""
        members = self.shards[shard]
        members.mark_up(replica)
        self._replica_changed(shard, replica)
        if source is not None:
            self.tracer.emit(RegistryHandoff(
                self._now(), f"shard{shard}/r{source}", f"shard{shard}/r{replica}",
                entries, "rejoin",
            ))
        else:
            self._promote(shard)
