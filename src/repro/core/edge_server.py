"""The edge node server — simulation backend of the edge driver.

The node-side *decisions* of Table I — seqNum join synchronization
(Algorithm 1), the unrejectable ``Unexpected_join``, leave handling,
the what-if cache invalidation triggers (join / leave / drift / idle)
and its EWMA update rule — live in
:class:`repro.protocol.admission.AdmissionMachine`, and its effects,
the Table I handlers, the coalesced test-workload runs, the monitor
feed and the lease are :class:`repro.protocol.driver.EdgeDriver`'s, for
this backend and the live one alike. This class owns the physics the
driver cannot: the real :class:`~repro.nodes.processing.FrameProcessor`
queue the synthetic test workload runs through (its completion fed back
by a kernel callback), frame receipt, heartbeating with fault verdicts,
and host-workload replay.
"""

from __future__ import annotations

import enum
import weakref
from functools import partial
from typing import TYPE_CHECKING, Callable, Optional, Tuple

from repro.core.config import PERF_MONITOR_PERIOD_MS, SystemConfig
from repro.geo.point import GeoPoint
from repro.messages import NodeStatus
from repro.nodes.hardware import HardwareProfile
from repro.nodes.host_workload import HostWorkloadSchedule
from repro.nodes.processing import CompletedFrame, FrameProcessor
from repro.obs.events import CacheMiss
from repro.protocol.admission import COMMON_RTT_MS, AdmissionConfig
from repro.protocol.driver import EdgeDriver
from repro.protocol.events import NodeFailed
from repro.sim.kernel import TimerHandle
from repro.workload.frames import Frame
from repro.world import MANAGER_ID

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.system import EdgeSystem


class NodeState(enum.Enum):
    ALIVE = "alive"
    FAILED = "failed"


class EdgeServer(EdgeDriver):
    """One edge node: application server + probing endpoint.

    Args:
        system: the owning :class:`~repro.core.system.EdgeSystem`, held
            weakly: the node keeps its clock, topology and tracer, and
            reaches the world only for what it late-binds (the manager,
            the fault plan).
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
        self._world = weakref.ref(system)
        self.sim = system.sim
        self.topology = system.topology
        self.host_schedule = host_schedule or HostWorkloadSchedule.none()
        self.config: SystemConfig = system.config
        super().__init__(
            node_id,
            profile,
            AdmissionConfig(
                join_synchronization=self.config.join_synchronization,
                standard_fps=system.app.max_fps,
            ),
            tracer=system.trace,
            dedicated=dedicated,
            # "two times the common user RTT propagation" (Algorithm 1).
            test_delay_ms=2.0 * COMMON_RTT_MS,
        )
        self.processor = FrameProcessor(profile)
        self.state = NodeState.ALIVE
        self.failed_at_ms: Optional[float] = None
        self.frames_received = 0
        self.frames_dropped = 0

        self._heartbeat_timer: Optional[TimerHandle] = None
        self._monitor_timer: Optional[TimerHandle] = None
        self._lease_timer: Optional[TimerHandle] = None
        # Per-beat event labels, built once (see EdgeClient._lbl_*).
        self._lbl_hb = node_id + ".hb"
        self._lbl_cache = node_id + ".cache"

    @property
    def system(self) -> "EdgeSystem":
        return self._world()  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Driver hooks: the kernel clock, the real queue, the topology
    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        return self.state is NodeState.ALIVE

    @property
    def slowdown(self) -> float:  # type: ignore[override]
        return self.processor.slowdown_factor

    def _now(self) -> float:
        return self.sim.now

    def _call_later(
        self, delay_ms: float, callback: Callable[[], None], label: str
    ) -> None:
        self.sim.schedule(delay_ms, callback, label=label)

    #: Per-frame compute time on this queue; None is the profile's own.
    service_ms: Optional[float] = None

    def _start_test_frame(self) -> bool:
        completed = self.processor.submit(
            self.sim.now, synthetic=True, service_ms=self.service_ms
        )
        if completed is None:
            return False
        self.sim.schedule_at(
            completed.completion_ms,
            partial(self._test_frame_done, completed.sojourn_ms),
            label=self._lbl_cache,
        )
        return True

    def _recent_mean_sojourn_ms(self) -> Optional[float]:
        return self.processor.recent_mean_sojourn_ms(self.sim.now)

    def _idle_floor_ms(self) -> float:
        return self.processor.effective_service_ms

    def _position(self) -> Tuple[GeoPoint, Optional[str]]:
        endpoint = self.topology.endpoint(self.node_id)
        return endpoint.point, endpoint.isp

    def _utilization(self) -> float:
        return self.processor.offered_utilization(self.sim.now)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin heartbeating, performance monitoring and host-workload replay."""
        sim = self.sim
        self._heartbeat_timer = sim.every(
            self.config.heartbeat_period_ms,
            self._send_heartbeat,
            start_after=0.0,
            label=f"{self.node_id}.heartbeat",
        )
        self._monitor_timer = sim.every(
            PERF_MONITOR_PERIOD_MS,
            self._performance_monitor_tick,
            label=f"{self.node_id}.perfmon",
        )
        if self.config.attachment_lease_ms is not None:
            self._lease_timer = sim.every(
                self.config.attachment_lease_ms / 2.0,
                partial(
                    self._expire_stale_attachments, self.config.attachment_lease_ms
                ),
                label=f"{self.node_id}.lease",
            )
        for change_ms in self.host_schedule.change_points():
            if change_ms >= sim.now:
                sim.schedule_at(
                    change_ms, self._apply_host_slowdown, label=f"{self.node_id}.host"
                )
        self._apply_host_slowdown()
        # Prime the what-if cache so the very first probe sees real data.
        if self.tracer.enabled:
            self.tracer.emit(CacheMiss(sim.now, self.node_id, "prime"))
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
        self.failed_at_ms = self.sim.now
        if self._heartbeat_timer is not None:
            self._heartbeat_timer.cancel()
        if self._monitor_timer is not None:
            self._monitor_timer.cancel()
        if self._lease_timer is not None:
            self._lease_timer.cancel()
        self._handle(NodeFailed(self.sim.now))

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
        self._last_seen[frame.user_id] = arrival_ms
        completed = self.processor.submit(arrival_ms, service_ms=self.service_ms)
        if completed is None:
            self.frames_dropped += 1
            return None
        return completed

    def _apply_host_slowdown(self) -> None:
        """Apply the host-workload slowdown in effect right now."""
        if not self.alive:
            return
        factor = self.host_schedule.slowdown_at(self.sim.now)
        if factor != self.processor.slowdown_factor:
            self.processor.set_slowdown(max(1.0, factor))

    # ------------------------------------------------------------------
    # Manager heartbeat
    # ------------------------------------------------------------------
    def _send_heartbeat(self) -> None:
        if not self.alive:
            return
        status = self.status()
        delay = self.topology.one_way_ms(self.node_id, MANAGER_ID)
        faults = self._world().faults
        if faults is not None:
            verdict = faults.decide(
                self.node_id, MANAGER_ID, "heartbeat", self.sim.now
            )
            if not verdict.deliver:
                return  # lost in transit; the manager ages us out
            delay += verdict.extra_delay_ms
        self.sim.schedule(
            delay, partial(self._deliver_heartbeat, status), label=self._lbl_hb
        )

    def _deliver_heartbeat(self, status: NodeStatus) -> None:
        # Resolved on delivery, not at send: ``system.manager`` can be
        # replaced while a beat is in flight.
        self._world().manager.receive_heartbeat(status)

    def __repr__(self) -> str:
        return (
            f"EdgeServer({self.node_id}, {self.profile.name}, {self.state.value}, "
            f"users={len(self.attached)}, seq={self.seq_num})"
        )
