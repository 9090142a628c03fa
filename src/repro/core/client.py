"""The application user (client) — simulation backend of the client driver.

An :class:`EdgeClient` runs three concurrent activities on the simulator:

1. **The offloading loop** — sends encoded frames to the attached edge
   node at the adaptive rate, measures end-to-end latency per response,
   and feeds the rate controller. While unattached, frames accumulate in
   a bounded client-side backlog and are flushed on (re)attach, so
   downtime shows up as latency spikes exactly as in Fig. 4.
2. **The periodic selection round** (Algorithm 2) — every ``T_probing``.
3. **Failure handling** — walking the backup list on a broken
   connection, falling back to reactive re-discovery only when every
   backup is dead too (counted as a *failure*, Fig. 10b).

All the *decisions* in 2 and 3 live in
:class:`repro.protocol.selection.SelectionMachine`, and its effects are
dispatched once, for this backend and the live one, by
:class:`repro.protocol.driver.ClientDriver`. This class supplies only
transport and physics: RTT sampling, fault verdicts, the kernel
callbacks that deliver each reply (``sim.schedule``, in the same calls
and order as ever, so every RNG draw and event lands where it did), and
the per-frame path — frames, the backlog, :class:`_InFlightFrame`.

Baselines (geo-proximity, resource-aware WRR, ...) subclass this and
override only the selection round — frames, links, adaptation and
failure detection are shared machinery, so every strategy pays identical
costs elsewhere.
"""

from __future__ import annotations

from collections import deque
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

from repro.controlplane.errors import ControlPlaneUnavailable
from repro.core.config import SystemConfig
from repro.messages import DiscoveryQuery, ProbeOutcome
from repro.policy.base import SelectionPolicy
from repro.policy.baselines import RankingCallable
from repro.net.link import CONNECTION_SETUP_RTTS, Link
from repro.nodes.processing import CompletedFrame
from repro.obs.events import FrameDone, FrameStart, PhaseSpan
from repro.protocol.driver import ClientDriver, ClientStats
from repro.protocol.events import (
    CandidatesReceived,
    DiscoveryFailed,
    FailoverResult,
    ProbesCompleted,
)
from repro.protocol.selection import SelectionConfig
from repro.sim.kernel import TimerHandle
from repro.workload.adaptive import AdaptiveRateController
from repro.workload.ar import ARApplication
from repro.workload.frames import Frame, FrameSource

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.edge_server import EdgeServer
    from repro.core.system import EdgeSystem
    from repro.faults.injector import MessageDecision

__all__ = ["ClientLike", "ClientStats", "EdgeClient"]


@runtime_checkable
class ClientLike(Protocol):
    """The contract :class:`~repro.core.system.EdgeSystem` requires of a
    registered client.

    Every client — :class:`EdgeClient`, the baselines, or a custom
    strategy — must expose this surface; ``EdgeSystem.add_client``
    validates it structurally at registration. The system never reaches
    into client internals beyond these members: in particular, failure
    notification asks the *client* whether it observes a node
    (:meth:`observes_node`) rather than duck-typing over
    ``failure_monitor``/``links`` attributes, which remain optional
    implementation details of :class:`EdgeClient`.
    """

    user_id: str

    def start(self) -> None:
        """Begin operating on the system's simulator."""
        ...

    def observes_node(self, node_id: str) -> bool:
        """True if this client holds any relationship to ``node_id``
        (open connection, current attachment, or backup) through which
        it would eventually notice the node failing."""
        ...

    def on_edge_failure(self, node_id: str) -> None:
        """Deliver a broken-connection notification for ``node_id``."""
        ...


class _InFlightFrame:
    """One frame between send and response: the state its two kernel
    callbacks share, and the per-hop timings the latency phase spans
    are cut from.

    Slotted and built once per frame — a closure pair here cost two
    functions, two closure tuples and ten cells per frame, enough
    GC-tracked garbage to wake the cycle collector every ~57 frames.

    Attributes:
        uplink_delay: one-way delay plus payload transfer (plus any
            injected delay) from client to node.
        backlog_ms: time the frame spent in the client-side backlog
            before leaving (0 for frames sent the moment they were
            captured) — part of the queue phase of the latency
            decomposition.
        completed: the node's completion record — unset until arrival.
        downlink: the response's one-way delay — unset until arrival.
    """

    __slots__ = (
        "client", "frame", "edge_id", "node", "uplink_delay", "backlog_ms",
        "completed", "downlink",
    )
    completed: CompletedFrame
    downlink: float

    def __init__(
        self,
        client: "EdgeClient",
        frame: Frame,
        edge_id: str,
        node: "EdgeServer",
        uplink_delay: float,
        backlog_ms: float,
    ) -> None:
        self.client = client
        self.frame = frame
        self.edge_id = edge_id
        self.node = node
        self.uplink_delay = uplink_delay
        self.backlog_ms = backlog_ms

    def arrive(self) -> None:
        """The uplink delivered the frame: queue it, schedule the response."""
        client = self.client
        system = client.system
        completed = self.node.receive_frame(self.frame, system.sim.now)
        if completed is None:
            client._record_lost(self.frame, self.edge_id)
            return
        self.completed = completed
        self.downlink = downlink = system.topology.one_way_ms(
            self.edge_id, client.user_id
        )
        system.sim.schedule_at(
            completed.completion_ms + downlink,
            self.respond,
            label=client._lbl_resp,
        )

    def arrive_duplicate(self) -> None:
        """An injected duplicate reached the node (no response follows)."""
        self.node.receive_frame(self.frame, self.client.system.sim.now)

    def respond(self) -> None:
        """The downlink delivered the result (unless the node died first)."""
        client = self.client
        frame = self.frame
        node = self.node
        completed = self.completed
        if node.failed_at_ms is not None and not node.alive and (
            node.failed_at_ms < completed.completion_ms
        ):
            # The node died while the frame was queued/processing.
            client._record_lost(frame, self.edge_id)
            return
        trace = client.system.trace
        now = client.system.sim.now
        latency = now - frame.created_ms
        stats = client.stats
        stats.frames_completed += 1
        stats.latencies_ms.append(latency)
        if trace.enabled:
            # The three spans sum exactly to `latency`:
            # latency = backlog + uplink + wait + service + downlink.
            trace.emit(
                PhaseSpan(now, client.user_id, frame.frame_id, "rtt",
                          self.uplink_delay + self.downlink)
            )
            trace.emit(
                PhaseSpan(now, client.user_id, frame.frame_id, "queue",
                          self.backlog_ms + completed.wait_ms)
            )
            trace.emit(
                PhaseSpan(now, client.user_id, frame.frame_id, "process",
                          completed.service_ms)
            )
        trace.emit(
            FrameDone(now, client.user_id, self.edge_id, frame.frame_id,
                      frame.created_ms, latency)
        )
        client.controller.observe(latency)


class EdgeClient(ClientDriver):
    """A user device running the client-centric edge selection.

    Args:
        system: owning :class:`~repro.core.system.EdgeSystem`.
        user_id: unique id; must match a registered network endpoint.
        app: application profile (defaults to the system's).
        local_policy: a :class:`~repro.policy.base.SelectionPolicy` or
            legacy ranking callable; defaults to the system/config
            resolved policy (``EdgeSystem.make_selection_policy``),
            which honours ``ScenarioBuilder.policy(...)`` and
            ``SystemConfig.policy_spec`` including QoS wrapping.
        proactive_connections: keep standing connections to backups
            (False reproduces the reactive "re-connect" baseline).
        backlog_limit: max frames buffered while unattached.
    """

    def __init__(
        self,
        system: "EdgeSystem",
        user_id: str,
        *,
        app: Optional[ARApplication] = None,
        local_policy: "Optional[SelectionPolicy | RankingCallable]" = None,
        proactive_connections: bool = True,
        backlog_limit: int = 64,
    ) -> None:
        self.system = system
        self.config: SystemConfig = system.config
        self.app = app or system.app
        self.controller = AdaptiveRateController(self.app)
        rng = system.streams.get(f"client.{user_id}")
        self.frame_source = FrameSource(user_id, self.app, rng)
        self._rng = rng
        super().__init__(
            user_id,
            local_policy
            if local_policy is not None
            else system.make_selection_policy(user_id),
            SelectionConfig(
                top_n=self.config.top_n,
                min_dwell_ms=self.config.min_dwell_ms,
                switch_penalty_ms=self.config.switch_penalty_ms,
                switch_penalty_fraction=self.config.switch_penalty_fraction,
                max_discovery_retries=self.config.max_discovery_retries,
            ),
            tracer=system.trace,
            proactive_connections=proactive_connections,
        )
        #: Live robustness knob (§IV-E): an attached AdaptiveRobustness
        #: controller may move it with observed churn (``top_n`` lives on
        #: the machine and is mirrored by the driver).
        self.probing_period_ms = self.config.probing_period_ms
        self.robustness_controller: Optional[object] = None
        self._backlog: Deque[Frame] = deque(maxlen=backlog_limit)
        self._probe_event: Optional[TimerHandle] = None
        # Interned hot-path event labels. The frame loop schedules ~4
        # kernel events per frame; rebuilding the same f-string label on
        # every call was measurable at metro scale, so each label is
        # built once per client here.
        uid = self.user_id
        self._lbl_probe = uid + ".probe"
        self._lbl_discover_timeout = uid + ".discover-timeout"
        self._lbl_discover = uid + ".discover"
        self._lbl_probed = uid + ".probed"
        self._lbl_join = uid + ".join"
        self._lbl_failover = uid + ".failover"
        self._lbl_frame = uid + ".frame"
        self._lbl_dup = uid + ".dup"
        self._lbl_resp = uid + ".resp"
        self._lbl_uplink = uid + ".uplink"
        self._lbl_leave = uid + ".leave"

    #: The policy under the name experiments have always read.
    local_policy = ClientDriver.policy

    def _now(self) -> float:
        return self.system.sim.now

    def _call_later(
        self, delay_ms: float, callback: Callable[[], None], label: str
    ) -> None:
        self.system.sim.schedule(delay_ms, callback, label=label)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Join the system: first selection round + periodic timers."""
        self._begin_selection_round()
        self._schedule_probe_round()
        self._schedule_next_frame(self.controller.interval_ms)

    def _schedule_probe_round(self) -> None:
        """Self-rescheduling probing timer.

        Self-rescheduling (rather than a fixed periodic timer) lets the
        probing cadence follow ``probing_period_ms`` when an adaptive
        robustness controller moves it between rounds.
        """
        if self._stopped:
            return
        delay = self.probing_period_ms
        if self.config.probing_jitter_ms > 0:
            delay += self._rng.uniform(
                -self.config.probing_jitter_ms, self.config.probing_jitter_ms
            )
        delay = max(delay, 100.0)

        def fire() -> None:
            if self._stopped:
                return
            self._begin_selection_round()
            self._schedule_probe_round()

        self._probe_event = self.system.sim.schedule(
            delay, fire, label=self._lbl_probe
        )

    def stop(self) -> None:
        """Leave the system (task finished)."""
        if self._stopped:
            return
        self._stopped = True
        if self._probe_event is not None:
            self._probe_event.cancel()
        if self.current_edge is not None:
            self._send_leave(self.current_edge, reason="finish")
            self.current_edge = None

    # ------------------------------------------------------------------
    # Fault interception (repro.faults)
    # ------------------------------------------------------------------
    #: How long an unanswered discovery request waits before the driver
    #: reports :class:`~repro.protocol.events.DiscoveryFailed` (the live
    #: runtime's retry budget plays the same role on the wall clock).
    DISCOVERY_TIMEOUT_MS = 1_000.0

    def _decide_fault(self, dst: str, op: str) -> Optional["MessageDecision"]:
        """One injector verdict for a logical message exchange, or None.

        The sim intercepts each exchange *once at send time* — the
        verdict covers the round trip, so a rule matching either
        direction of a link should name the client as ``src``. Manager
        outages and symmetric partitions match regardless.
        """
        faults = self.system.faults
        if faults is None:
            return None
        return faults.decide(self.user_id, dst, op, self.system.sim.now)

    # ------------------------------------------------------------------
    # Selection round I/O (Algorithm 2) — overridden by baselines
    # ------------------------------------------------------------------
    def _send_discovery(self, top_n: int, exclude: Tuple[str, ...]) -> None:
        """Edge discovery: one round trip to the Central Manager."""
        endpoint = self.system.topology.endpoint(self.user_id)
        query = DiscoveryQuery(
            user_id=self.user_id,
            lat=endpoint.point.lat,
            lon=endpoint.point.lon,
            top_n=top_n,
            isp=endpoint.isp,
            exclude=exclude,
        )
        rtt = self.system.topology.rtt_ms(self.user_id, self.system.manager_id)
        verdict = self._decide_fault(self.system.manager_id, "discover")
        if verdict is not None:
            if not verdict.deliver:
                # Black-holed: the client only learns via its timeout.
                self._discovery_timeout(verdict.kind)
                return
            rtt += verdict.extra_delay_ms
        self.system.sim.schedule(
            rtt,
            lambda: self._discover_at_manager(query),
            label=self._lbl_discover,
        )

    def _discovery_timeout(self, reason: str) -> None:
        self.system.sim.schedule(
            self.DISCOVERY_TIMEOUT_MS,
            lambda: self._feed(DiscoveryFailed(self.system.sim.now, reason=reason)),
            label=self._lbl_discover_timeout,
        )

    def _discover_at_manager(self, query: DiscoveryQuery) -> None:
        """The query reached the manager: answer, or shard unavailable.

        A control-plane shard with no serving replica (primary killed,
        standby not yet promoted) behaves exactly like an unreachable
        manager: the client only learns via its discovery timeout and
        then rides the degraded-fallback path — never an empty
        candidate list.
        """
        try:
            candidates = self.system.manager.discover(query)
        except ControlPlaneUnavailable as exc:
            self._discovery_timeout(exc.reason)
            return
        self._feed(
            CandidatesReceived(
                self.system.sim.now, candidates.node_ids, candidates.widened
            )
        )

    def _probe_candidates(self, node_ids: Tuple[str, ...]) -> None:
        """Probe all candidates in parallel; collect when the slowest returns.

        Each probe measures ``D_prop`` (the sampled RTT *is* the
        measurement) and reads the candidate's what-if cache. Dead
        candidates simply never answer and are dropped when the round
        closes. Probing a candidate also warms a connection to it —
        this is how proactive backup connections get established.
        """
        topology = self.system.topology
        now = self.system.sim.now
        outcomes = []
        max_rtt = 0.0
        samples = self.config.rtt_probe_samples
        for node_id in node_ids:
            self._probe_sent(node_id)
            if not topology.has_endpoint(node_id):
                continue
            verdict = self._decide_fault(node_id, "probe")
            if verdict is not None and not verdict.deliver:
                continue  # probe times out silently, like a dead node
            pings = [
                topology.rtt_ms(self.user_id, node_id) for _ in range(samples)
            ]
            rtt = sum(pings) / len(pings)
            if verdict is not None:
                rtt += verdict.extra_delay_ms
            max_rtt = max(max_rtt, rtt)
            node = self.system.nodes.get(node_id)
            if node is None:
                continue
            reply = node.process_probe()
            if reply is None:
                continue  # dead node: probe times out silently
            outcomes.append(self._probe_answered(node_id, rtt, reply, now, now + rtt))
            if self.proactive_connections:
                self._ensure_link(node_id, rtt)
        self.system.sim.schedule(
            max_rtt if max_rtt > 0 else 1.0,
            lambda: self._feed(
                ProbesCompleted(self.system.sim.now, tuple(outcomes))
            ),
            label=self._lbl_probed,
        )

    def _send_join(self, best: ProbeOutcome) -> None:
        """``Join()`` the chosen candidate, echoing its probed seqNum."""
        node = self.system.nodes.get(best.node_id)
        rtt = self.system.topology.rtt_ms(self.user_id, best.node_id)
        verdict = self._decide_fault(best.node_id, "join")
        dropped = verdict is not None and not verdict.deliver
        if verdict is not None and verdict.deliver:
            rtt += verdict.extra_delay_ms

        def deliver() -> None:
            now = self.system.sim.now
            if dropped or node is None or not node.alive:
                # A dropped join is indistinguishable from a dead node:
                # no answer before the timeout.
                self._join_answered(best.node_id, False, False, now)
            else:
                reply = node.join(self.user_id, best.seq_num, self.controller.fps)
                self._join_answered(best.node_id, reply.accepted, True, now)

        self.system.sim.schedule(rtt, deliver, label=self._lbl_join)

    # ------------------------------------------------------------------
    # Links
    # ------------------------------------------------------------------
    def _ensure_link(self, node_id: str, rtt_ms: float) -> None:
        link = self.links.get(node_id)
        if link is None:
            link = Link(self.user_id, node_id, rtt_ms)
            link.mark_up(self.system.sim.now)  # warmed by the probe exchange
            self.links[node_id] = link
        else:
            link.rtt_ms = rtt_ms

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def _send_failover_join(self, backup_id: str) -> None:
        """``Unexpected_join()`` one backup after the connection delay."""
        node = self.system.nodes.get(backup_id)
        rtt = (
            self.system.topology.rtt_ms(self.user_id, backup_id)
            if self.system.topology.has_endpoint(backup_id)
            else self.config.common_rtt_ms
        )
        if not self.proactive_connections:
            rtt += CONNECTION_SETUP_RTTS * rtt  # fresh connection first
        verdict = self._decide_fault(backup_id, "unexpected_join")
        dropped = verdict is not None and not verdict.deliver
        if verdict is not None and verdict.deliver:
            rtt += verdict.extra_delay_ms

        def deliver() -> None:
            accepted = (
                not dropped
                and node is not None
                and node.alive
                and node.unexpected_join(self.user_id, self.controller.fps).accepted
            )
            self._feed(
                FailoverResult(
                    self.system.sim.now, backup_id, accepted, rtt_ms=rtt
                )
            )

        self.system.sim.schedule(rtt, deliver, label=self._lbl_failover)

    # ------------------------------------------------------------------
    # Offloading loop
    # ------------------------------------------------------------------
    def _schedule_next_frame(self, delay_ms: float) -> None:
        if self._stopped:
            return
        self.system.sim.schedule(
            delay_ms, self._offload_tick, label=self._lbl_frame
        )

    def _offload_tick(self) -> None:
        if self._stopped:
            return
        frame = self.frame_source.next_frame(self.system.sim.now)
        if self._machine.current_edge is not None:
            self._send_frame(frame)
        else:
            self._backlog.append(frame)
        self._schedule_next_frame(self.controller.interval_ms)

    #: Frames older than this are useless to an AR application (the scene
    #: has moved on); they are dropped as lost rather than offloaded.
    FRAME_STALENESS_MS = 2_000.0

    def _flush_backlog(self) -> None:
        """Send frames buffered during downtime (their latency includes it).

        Frames that went stale during the outage are dropped and counted
        as lost — replaying seconds-old camera frames after a reconnect
        would only poison the queue and tell the user about the past.
        """
        now = self.system.sim.now
        while self._backlog and self.attached:
            frame = self._backlog.popleft()
            if now - frame.created_ms > self.FRAME_STALENESS_MS:
                self._record_lost(frame, self.current_edge or "none")
                continue
            self._send_frame(frame)

    def _send_frame(self, frame: Frame) -> None:
        edge_id = self._machine.current_edge
        assert edge_id is not None
        system = self.system
        node = system.nodes.get(edge_id)
        topology = system.topology
        trace = system.trace
        self.stats.frames_sent += 1
        if node is None or not topology.has_endpoint(edge_id):
            self._record_lost(frame, edge_id)
            return
        verdict = self._decide_fault(edge_id, "frame")
        if verdict is not None and not verdict.deliver:
            self._record_lost(frame, edge_id)
            return
        now = system.sim.now
        if trace.enabled:
            trace.emit(FrameStart(now, self.user_id, edge_id, frame.frame_id))
        transfer = topology.transfer_ms(self.user_id, edge_id, frame.size_bytes)
        uplink_delay = topology.one_way_ms(self.user_id, edge_id) + transfer
        if verdict is not None:
            uplink_delay += verdict.extra_delay_ms
        in_flight = _InFlightFrame(
            self, frame, edge_id, node, uplink_delay, now - frame.created_ms
        )
        arrival = now + uplink_delay
        if verdict is not None:
            for _ in range(verdict.copies - 1):
                # Duplicated frames still load the server's queue; the
                # client ignores the redundant response.
                system.sim.schedule_at(
                    arrival, in_flight.arrive_duplicate, label=self._lbl_dup
                )
        system.sim.schedule_at(arrival, in_flight.arrive, label=self._lbl_uplink)

    def _record_lost(self, frame: Frame, edge_id: str) -> None:
        self.stats.frames_lost += 1
        self.system.trace.emit(
            FrameDone(self.system.sim.now, self.user_id, edge_id,
                      frame.frame_id, frame.created_ms, None)
        )

    # ------------------------------------------------------------------
    def _send_leave(self, node_id: str, reason: str) -> None:
        node = self.system.nodes.get(node_id)
        if node is None:
            return
        verdict = self._decide_fault(node_id, "leave")
        if verdict is not None and not verdict.deliver:
            return  # the node never hears the goodbye
        delay = (
            self.system.topology.one_way_ms(self.user_id, node_id)
            if self.system.topology.has_endpoint(node_id)
            else 1.0
        )
        if verdict is not None:
            delay += verdict.extra_delay_ms
        self.system.sim.schedule(
            delay, lambda: node.leave(self.user_id), label=self._lbl_leave
        )

    def __repr__(self) -> str:
        return (
            f"EdgeClient({self.user_id}, edge={self.current_edge}, "
            f"backups={self.failure_monitor.backups})"
        )
