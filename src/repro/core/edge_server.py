"""The edge node server — simulation driver over the protocol core.

The node-side *decisions* of Table I — seqNum join synchronization
(Algorithm 1), the unrejectable ``Unexpected_join``, leave handling,
the what-if cache invalidation triggers (join / leave / drift / idle)
and its EWMA update rule — live in
:class:`repro.protocol.admission.AdmissionMachine`. This class is the
sim-side **driver**: it owns the physics the machine cannot — the real
frame queue the synthetic test workload runs through, the measured
sojourns, heartbeating, host-workload replay — and translates between
sim method calls and machine events/effects:

- ``process_probe``/``join``/``unexpected_join``/``leave`` feed the
  machine and frame its reply effects into the wire messages;
- a :class:`~repro.protocol.effects.ScheduleTestWorkload` effect runs
  the synthetic frame through the **real** queue (delayed by
  ``2 x common RTT`` for the join trigger, so the new user's frames are
  already flowing) and feeds the measured sojourn back as
  :class:`~repro.protocol.events.TestWorkloadCompleted`;
- the periodic performance monitor samples the queue and feeds
  :class:`~repro.protocol.events.MonitorSample` (trigger type 3).
"""

from __future__ import annotations

import enum
from functools import partial
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.config import SystemConfig
from repro.geo import geohash as gh
from repro.geo.point import GeoPoint
from repro.messages import JoinReply, NodeStatus, ProbeReply
from repro.nodes.hardware import HardwareProfile
from repro.nodes.host_workload import HostWorkloadSchedule
from repro.nodes.processing import CompletedFrame, FrameProcessor, analytic_sojourn_ms
from repro.obs.events import AttachmentExpired, CacheMiss, TestWorkloadInvoked
from repro.protocol.admission import AdmissionConfig, AdmissionMachine
from repro.protocol.effects import (
    Effect,
    EmitTrace,
    ReplyJoin,
    ReplyProbe,
    ScheduleTestWorkload,
)
from repro.protocol.events import (
    JoinRequested,
    LeaveRequested,
    MonitorSample,
    NodeFailed,
    ProbeRequested,
    TestWorkloadCompleted,
    UnexpectedJoinRequested,
)
from repro.sim.kernel import TimerHandle
from repro.workload.frames import Frame

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.system import EdgeSystem


class NodeState(enum.Enum):
    ALIVE = "alive"
    FAILED = "failed"


class EdgeServer:
    """One edge node: application server + probing endpoint.

    Args:
        system: the owning :class:`~repro.core.system.EdgeSystem`.
        node_id: unique id; must match a registered network endpoint.
        profile: hardware profile (Table II entry or custom).
        dedicated: True for Local-Zone-style dedicated infrastructure
            (no host workload, advertised as dedicated to the manager).
        host_schedule: volunteer host-workload interference timeline.
    """

    def __init__(
        self,
        system: "EdgeSystem",
        node_id: str,
        profile: HardwareProfile,
        *,
        dedicated: bool = False,
        host_schedule: Optional[HostWorkloadSchedule] = None,
    ) -> None:
        self.system = system
        self.node_id = node_id
        self.profile = profile
        self.dedicated = dedicated
        self.host_schedule = host_schedule or HostWorkloadSchedule.none()
        self.config: SystemConfig = system.config

        self.processor = FrameProcessor(profile)
        self.state = NodeState.ALIVE
        self.failed_at_ms: Optional[float] = None
        #: The sans-IO admission core this driver executes.
        self._machine = AdmissionMachine(
            node_id,
            AdmissionConfig(
                join_synchronization=self.config.join_synchronization,
                perf_monitor_threshold=self.config.perf_monitor_threshold,
                standard_fps=system.app.max_fps,
            ),
            initial_ms=profile.base_frame_ms,
            project=self._project_sojourn,
            detail_guard=lambda: self.system.trace.enabled,
        )

        # counters surfaced to experiments
        self.test_workload_invocations = 0
        self.probes_served = 0
        self.joins_accepted = 0
        self.joins_rejected = 0
        self.frames_received = 0
        self.frames_dropped = 0

        self._heartbeat_timer: Optional[TimerHandle] = None
        self._monitor_timer: Optional[TimerHandle] = None
        self._lease_timer: Optional[TimerHandle] = None
        self._test_pending = False
        #: (point, its geohash): re-encoded when the endpoint is replaced
        self._geohash: Optional[Tuple[GeoPoint, str]] = None
        #: Last time each attached user showed signs of life (join
        #: grant or frame arrival) — drives the attachment lease.
        self._last_seen_ms: Dict[str, float] = {}
        # Per-beat event labels, built once (see EdgeClient._lbl_*).
        self._lbl_hb = node_id + ".hb"
        self._lbl_cache = node_id + ".cache"
        self._lbl_testwl = node_id + ".testwl"

    def _project_sojourn(self, offered_fps: float, slowdown: float) -> float:
        """The machine's analytic sojourn projection, closed over this
        node's hardware profile."""
        return analytic_sojourn_ms(
            self.profile, offered_fps, slowdown_factor=slowdown
        )

    # ------------------------------------------------------------------
    # Protocol-core state, exposed on the driver for experiments and the
    # multi-app subclass.
    # ------------------------------------------------------------------
    @property
    def seq_num(self) -> int:
        return self._machine.seq_num

    @seq_num.setter
    def seq_num(self, value: int) -> None:
        self._machine.seq_num = value

    @property
    def attached(self) -> Dict[str, float]:
        return self._machine.attached

    @attached.setter
    def attached(self, value: Dict[str, float]) -> None:
        self._machine.attached = value

    @property
    def what_if_ms(self) -> float:
        return self._machine.what_if_ms

    @what_if_ms.setter
    def what_if_ms(self, value: float) -> None:
        self._machine.what_if_ms = value

    @property
    def stay_ms(self) -> float:
        return self._machine.stay_ms

    @stay_ms.setter
    def stay_ms(self, value: float) -> None:
        self._machine.stay_ms = value

    @property
    def _monitor_baseline_ms(self) -> float:
        return self._machine.monitor_baseline_ms

    @_monitor_baseline_ms.setter
    def _monitor_baseline_ms(self, value: float) -> None:
        self._machine.monitor_baseline_ms = value

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin heartbeating, performance monitoring and host-workload replay."""
        sim = self.system.sim
        self._heartbeat_timer = sim.every(
            self.config.heartbeat_period_ms,
            self._send_heartbeat,
            start_after=0.0,
            label=f"{self.node_id}.heartbeat",
        )
        self._monitor_timer = sim.every(
            self.config.perf_monitor_period_ms,
            self._performance_monitor_tick,
            label=f"{self.node_id}.perfmon",
        )
        if self.config.attachment_lease_ms is not None:
            self._lease_timer = sim.every(
                self.config.attachment_lease_ms / 2.0,
                self._expire_stale_attachments,
                label=f"{self.node_id}.lease",
            )
        for change_ms in self.host_schedule.change_points():
            if change_ms >= sim.now:
                sim.schedule_at(
                    change_ms, self._apply_host_slowdown, label=f"{self.node_id}.host"
                )
        self._apply_host_slowdown()
        # Prime the what-if cache so the very first probe sees real data.
        self._mark_cache_stale("prime")
        self._invoke_test_workload()

    def fail(self) -> None:
        """The node crashes or leaves without notification.

        All attached users lose their in-flight frames; clients find out
        through their own failure detection, not through us (volunteer
        nodes "can join and leave the system anytime without
        notifications").
        """
        if self.state is NodeState.FAILED:
            return
        self.state = NodeState.FAILED
        self.failed_at_ms = self.system.sim.now
        if self._heartbeat_timer is not None:
            self._heartbeat_timer.cancel()
        if self._monitor_timer is not None:
            self._monitor_timer.cancel()
        if self._lease_timer is not None:
            self._lease_timer.cancel()
        self._machine.handle(NodeFailed(self.system.sim.now))

    @property
    def alive(self) -> bool:
        return self.state is NodeState.ALIVE

    # ------------------------------------------------------------------
    # Effect execution
    # ------------------------------------------------------------------
    def _run_effects(self, effects: List[Effect]) -> Optional[Effect]:
        """Execute side effects in order; return the reply effect (if any)."""
        reply: Optional[Effect] = None
        for effect in effects:
            if isinstance(effect, EmitTrace):
                self.system.trace.emit(effect.event)
            elif isinstance(effect, ScheduleTestWorkload):
                if effect.delayed:
                    self.system.sim.schedule(
                        2.0 * self.config.common_rtt_ms,
                        self._invoke_test_workload,
                        label=self._lbl_testwl,
                    )
                else:
                    self._invoke_test_workload()
            elif isinstance(effect, (ReplyProbe, ReplyJoin)):
                reply = effect
            else:  # pragma: no cover - forward-compatibility guard
                raise TypeError(f"unhandled effect {type(effect).__name__}")
        return reply

    # ------------------------------------------------------------------
    # Table I APIs (invoked by clients after the network delay)
    # ------------------------------------------------------------------
    def process_probe(self) -> Optional[ProbeReply]:
        """``Process_probe()``: return the cached what-if performance.

        A cache read only — "a large number of probing requests do not
        necessarily lead to more test workload invocations". Returns
        None when the node is dead (the caller's probe just times out).
        """
        if not self.alive:
            return None
        self.probes_served += 1
        now = self.system.sim.now
        reply = self._run_effects(
            self._machine.handle(
                ProbeRequested(
                    now,
                    recent_mean_ms=self.processor.recent_mean_sojourn_ms(now),
                )
            )
        )
        assert isinstance(reply, ReplyProbe)
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
        increments and a test-workload run is scheduled after
        ``2 x common RTT`` so the measurement sees the new user's frames.
        """
        reply = self._run_effects(
            self._machine.handle(
                JoinRequested(self.system.sim.now, user_id, user_seq_num, fps)
            )
        )
        assert isinstance(reply, ReplyJoin)
        if reply.accepted:
            self.joins_accepted += 1
            self._last_seen_ms[user_id] = self.system.sim.now
        else:
            self.joins_rejected += 1
        return JoinReply(
            node_id=self.node_id, accepted=reply.accepted, seq_num=reply.seq_num
        )

    def unexpected_join(self, user_id: str, fps: float) -> bool:
        """``Unexpected_join()``: failover attach that cannot be rejected.

        Returns False only if this node is itself dead (the client will
        then try its next backup).
        """
        reply = self._run_effects(
            self._machine.handle(
                UnexpectedJoinRequested(self.system.sim.now, user_id, fps)
            )
        )
        assert isinstance(reply, ReplyJoin)
        if reply.accepted:
            self.joins_accepted += 1
            self._last_seen_ms[user_id] = self.system.sim.now
        return reply.accepted

    def leave(self, user_id: str) -> None:
        """``Leave()``: workload decrease — trigger type 2."""
        self._last_seen_ms.pop(user_id, None)
        self._run_effects(
            self._machine.handle(LeaveRequested(self.system.sim.now, user_id))
        )

    # ------------------------------------------------------------------
    # Frame processing
    # ------------------------------------------------------------------
    def receive_frame(
        self, frame: Frame, arrival_ms: float
    ) -> Optional[CompletedFrame]:
        """Enqueue an offloaded frame; return its completion record.

        The :class:`~repro.nodes.processing.CompletedFrame` carries the
        wait/service split the client turns into latency phase spans.
        Returns None when the node is dead (frame lost) or its queue is
        full (frame dropped).
        """
        if not self.alive:
            return None
        self.frames_received += 1
        self._last_seen_ms[frame.user_id] = arrival_ms
        completed = self.processor.submit(arrival_ms)
        if completed is None:
            self.frames_dropped += 1
            return None
        return completed

    # ------------------------------------------------------------------
    # What-if test workload + performance monitor
    # ------------------------------------------------------------------
    def _mark_cache_stale(self, reason: str) -> None:
        """Emit the cache-staleness trace event for one refresh trigger
        that originates in the driver (``prime``; the protocol triggers
        emit their own through the machine)."""
        if self.system.trace.enabled:
            self.system.trace.emit(
                CacheMiss(self.system.sim.now, self.node_id, reason)
            )

    def _invoke_test_workload(self) -> None:
        """Run the synthetic single-frame test workload through the
        **real** frame queue, then feed the measured sojourn back to the
        admission machine, which folds it into the what-if cache (EWMA
        blend with the analytic demand projection — see DESIGN.md §5).

        The real queue is the paper's accuracy argument for probing over
        static profiling: the sojourn reflects hardware, host
        interference and the live workload. Invocations are coalesced:
        if one is already in flight, the trigger is satisfied by its
        result.
        """
        if not self.alive or self._test_pending:
            return
        now = self.system.sim.now
        completed = self.processor.submit(now, synthetic=True)
        if completed is None:
            return  # queue saturated: cache keeps its (pessimistic) value
        self.test_workload_invocations += 1
        self.system.trace.emit(TestWorkloadInvoked(now, self.node_id))
        self._test_pending = True
        self.system.sim.schedule_at(
            completed.completion_ms,
            partial(self._report_test_workload, completed.sojourn_ms),
            label=self._lbl_cache,
        )

    def _report_test_workload(self, sojourn_ms: float) -> None:
        """The synthetic frame left the queue: feed its sojourn back."""
        self._test_pending = False
        self._run_effects(
            self._machine.handle(
                TestWorkloadCompleted(
                    self.system.sim.now,
                    sojourn_ms,
                    slowdown_factor=self.processor.slowdown_factor,
                )
            )
        )

    def _performance_monitor_tick(self) -> None:
        """Trigger type 3: noticeable processing-time drift at constant users.

        Catches adaptive request-rate changes and host workloads — both
        change measured sojourns without a join/leave. The driver only
        samples the queue; the drift/idle decisions are the machine's.
        """
        if not self.alive:
            return
        now = self.system.sim.now
        self._run_effects(
            self._machine.handle(
                MonitorSample(
                    now,
                    measured_ms=self.processor.recent_mean_sojourn_ms(now),
                    idle_floor_ms=self.processor.effective_service_ms,
                )
            )
        )

    def _expire_stale_attachments(self) -> None:
        """Evict attached users whose frames stopped arriving.

        The cleanup path for a ``Leave()`` lost in transit (or skipped
        by a client that believed this node dead): without it a
        partition can strand admission state forever, inflating the
        what-if projection with ghost users. Expiry feeds the machine a
        plain :class:`~repro.protocol.events.LeaveRequested`, so the
        usual trigger-type-2 cache refresh happens.
        """
        lease_ms = self.config.attachment_lease_ms
        if lease_ms is None or not self.alive:
            return
        now = self.system.sim.now
        for user_id in list(self._machine.attached):
            idle_ms = now - self._last_seen_ms.get(user_id, now)
            if idle_ms < lease_ms:
                continue
            self._last_seen_ms.pop(user_id, None)
            self.system.trace.emit(
                AttachmentExpired(now, self.node_id, user_id, idle_ms)
            )
            self._run_effects(
                self._machine.handle(LeaveRequested(now, user_id))
            )

    def _apply_host_slowdown(self) -> None:
        """Apply the host-workload slowdown in effect right now."""
        if not self.alive:
            return
        factor = self.host_schedule.slowdown_at(self.system.sim.now)
        if factor != self.processor.slowdown_factor:
            self.processor.set_slowdown(max(1.0, factor))

    # ------------------------------------------------------------------
    # Manager heartbeat
    # ------------------------------------------------------------------
    def status(self) -> NodeStatus:
        """Current status snapshot (what a heartbeat carries)."""
        endpoint = self.system.topology.endpoint(self.node_id)
        now = self.system.sim.now
        point = endpoint.point
        if self._geohash is None or self._geohash[0] is not point:
            self._geohash = (point, gh.encode_point(point, 9))
        return NodeStatus(
            node_id=self.node_id,
            lat=point.lat,
            lon=point.lon,
            geohash=self._geohash[1],
            cores=self.profile.cores,
            capacity_fps=self.profile.capacity_fps,
            attached_users=len(self.attached),
            utilization=self.processor.offered_utilization(now),
            dedicated=self.dedicated,
            isp=endpoint.isp,
            reported_at_ms=now,
        )

    def _send_heartbeat(self) -> None:
        if not self.alive:
            return
        status = self.status()
        delay = self.system.topology.one_way_ms(self.node_id, self.system.manager_id)
        faults = self.system.faults
        if faults is not None:
            verdict = faults.decide(
                self.node_id, self.system.manager_id, "heartbeat", self.system.sim.now
            )
            if not verdict.deliver:
                return  # lost in transit; the manager ages us out
            delay += verdict.extra_delay_ms
        self.system.sim.schedule(
            delay, partial(self._deliver_heartbeat, status), label=self._lbl_hb
        )

    def _deliver_heartbeat(self, status: NodeStatus) -> None:
        # Resolved on delivery, not at send: ``system.manager`` can be
        # replaced while a beat is in flight.
        self.system.manager.receive_heartbeat(status)

    def __repr__(self) -> str:
        return (
            f"EdgeServer({self.node_id}, {self.profile.name}, {self.state.value}, "
            f"users={len(self.attached)}, seq={self.seq_num})"
        )
