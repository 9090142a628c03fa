"""The edge-server admission role as a sans-IO state machine.

Everything Table I puts on the node side that is *decision*, not
measurement: seqNum join synchronization (Algorithm 1), the
unrejectable ``Unexpected_join`` failover attach, leave handling, and
the what-if cache rules — which triggers invalidate it (join / leave /
drift / idle win-back) and how a completed test workload updates it
(EWMA blend of the measured sojourn with an analytic projection of one
additional standard-rate user).

Drivers own the physics: running the synthetic frame through the real
queue, measuring sojourns, heartbeating, and the transport framing of
replies. Both backends — :class:`repro.core.edge_server.EdgeServer`
(simulated queue) and :class:`repro.runtime.edge_server.LiveEdgeServer`
(scaled real sleeps) — drive the same machine, so the cache semantics
are identical by construction (the live runtime previously skipped the
EWMA smoothing; it no longer can).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.obs.events import CacheHit, CacheMiss
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
    ProtocolEvent,
    TestWorkloadCompleted,
    UnexpectedJoinRequested,
)

__all__ = ["AdmissionConfig", "AdmissionMachine"]

#: The "common user RTT propagation" of Algorithm 1: a join-triggered
#: test workload starts two of these after the join, on both edges (the
#: live one scales it like its frame service).
COMMON_RTT_MS = 20.0
#: Relative processing-time drift that re-triggers the test workload
#: (trigger type 3).
PERF_MONITOR_THRESHOLD = 0.4
#: EWMA blend factor for successive what-if cache values: a single
#: synthetic frame that landed behind a transient burst would otherwise
#: make the node look terrible for a whole refresh cycle, stampeding its
#: users away and oscillating the population.
EWMA_ALPHA = 0.6
#: Idle win-back trigger: refresh when the cached what-if still reads
#: more than this multiple of the idle-floor service time on a node with
#: no attached users.
IDLE_REFRESH_FACTOR = 1.5

#: Analytic sojourn projection: ``(offered_fps, slowdown_factor) -> ms``.
#: Injected by the driver (it closes over the hardware profile) so the
#: machine stays free of queueing-model imports.
SojournProjection = Callable[[float, float], float]


def _never() -> bool:
    return False


@dataclass(frozen=True)
class AdmissionConfig:
    """Protocol constants for one admission machine."""

    join_synchronization: bool = True
    #: The application's standard per-user rate, used to project the
    #: "one more user joins" scenario from demand.
    standard_fps: float = 20.0


class AdmissionMachine:
    """Sans-IO edge-server admission: events in, effects out.

    Args:
        node_id: this node's id (stamped into trace events).
        config: protocol constants.
        initial_ms: cache prime value (the profile's base frame time).
        project: analytic sojourn projection (see
            :data:`SojournProjection`).
        detail_guard: gates detail trace events (``CacheHit``/
            ``CacheMiss``), mirroring the drivers' ``tracer.enabled``.
    """

    def __init__(
        self,
        node_id: str,
        config: AdmissionConfig,
        *,
        initial_ms: float,
        project: SojournProjection,
        detail_guard: Callable[[], bool] = _never,
    ) -> None:
        self.node_id = node_id
        self.config = config
        self.project = project
        self.alive = True
        self.seq_num = 0
        #: user_id -> declared offloading fps (informational)
        self.attached: Dict[str, float] = {}
        #: cached "what-if" processing delay served to probes
        self.what_if_ms = initial_ms
        #: cached stay-projection for already-attached users
        self.stay_ms = initial_ms
        #: measured processing level at the last test-workload run —
        #: the performance monitor's drift baseline
        self.monitor_baseline_ms = initial_ms
        self._detail_guard = detail_guard

    # ------------------------------------------------------------------
    def handle(self, event: ProtocolEvent) -> List[Effect]:
        """Advance the machine by one input event; return the effects."""
        if isinstance(event, ProbeRequested):
            return self._on_probe(event)
        if isinstance(event, JoinRequested):
            return self._on_join(event)
        if isinstance(event, UnexpectedJoinRequested):
            return self._on_unexpected_join(event)
        if isinstance(event, LeaveRequested):
            return self._on_leave(event)
        if isinstance(event, TestWorkloadCompleted):
            return self._on_test_completed(event)
        if isinstance(event, MonitorSample):
            return self._on_monitor_sample(event)
        if isinstance(event, NodeFailed):
            return self._on_node_failed(event)
        raise TypeError(f"AdmissionMachine cannot handle {type(event).__name__}")

    # ------------------------------------------------------------------
    # Table I APIs
    # ------------------------------------------------------------------
    def _on_probe(self, event: ProbeRequested) -> List[Effect]:
        """``Process_probe()``: a cache read only — "a large number of
        probing requests do not necessarily lead to more test workload
        invocations". No reply effect when dead: the probe times out."""
        if not self.alive:
            return []
        effects: List[Effect] = []
        if self._detail_guard():
            effects.append(
                EmitTrace(CacheHit(event.now, self.node_id, self.what_if_ms))
            )
        effects.append(
            ReplyProbe(
                what_if_ms=self.what_if_ms,
                seq_num=self.seq_num,
                attached_users=len(self.attached),
                current_proc_ms=(
                    event.recent_mean_ms
                    if event.recent_mean_ms is not None
                    else self.what_if_ms
                ),
                stay_ms=self.stay_ms,
            )
        )
        return effects

    def _on_join(self, event: JoinRequested) -> List[Effect]:
        """``Join()`` with seqNum synchronization (Algorithm 1).

        Accepted only if the node state has not changed since the
        caller's probe. Acceptance is itself a state change: the seqNum
        increments and a *delayed* test-workload run is requested so the
        measurement sees the new user's frames already flowing.
        """
        if not self.alive or (
            self.config.join_synchronization and event.seq_num != self.seq_num
        ):
            return [ReplyJoin(accepted=False, seq_num=self.seq_num)]
        self.seq_num += 1
        self.attached[event.user_id] = event.fps
        effects = self._stale(event.now, "join")
        effects.append(ScheduleTestWorkload("join", delayed=True))
        effects.append(ReplyJoin(accepted=True, seq_num=self.seq_num))
        return effects

    def _on_unexpected_join(self, event: UnexpectedJoinRequested) -> List[Effect]:
        """``Unexpected_join()``: failover attach that cannot be
        rejected — refused only when this node is itself dead."""
        if not self.alive:
            return [ReplyJoin(accepted=False, seq_num=self.seq_num)]
        self.seq_num += 1
        self.attached[event.user_id] = event.fps
        effects = self._stale(event.now, "join")
        effects.append(ScheduleTestWorkload("join", delayed=False))
        effects.append(ReplyJoin(accepted=True, seq_num=self.seq_num))
        return effects

    def _on_leave(self, event: LeaveRequested) -> List[Effect]:
        """``Leave()``: workload decrease — trigger type 2."""
        if not self.alive or event.user_id not in self.attached:
            return []
        del self.attached[event.user_id]
        self.seq_num += 1
        effects = self._stale(event.now, "leave")
        effects.append(ScheduleTestWorkload("leave", delayed=False))
        return effects

    # ------------------------------------------------------------------
    # What-if cache
    # ------------------------------------------------------------------
    def _stale(self, now: float, reason: str) -> List[Effect]:
        if self._detail_guard():
            return [EmitTrace(CacheMiss(now, self.node_id, reason))]
        return []

    def _on_test_completed(self, event: TestWorkloadCompleted) -> List[Effect]:
        """Fold a finished test workload into the cache.

        The cached what-if is the **max** of the measured synthetic
        sojourn and an analytic steady-state projection fed with the
        node's *demand* — every attached user plus one newcomer at the
        application's standard rate. The instantaneous arrival rate is
        useless here: adaptive clients throttle exactly when the node
        is overloaded, so a rate-based estimate reads low at the worst
        moment (and a lull makes the measured sojourn read near-idle on
        a saturated node). Successive values are EWMA-blended. See
        DESIGN.md §5.
        """
        if not self.alive:
            return []
        measured = event.measured_ms
        n_attached = len(self.attached)
        fps = self.config.standard_fps
        alpha = EWMA_ALPHA
        projected = self.project((n_attached + 1) * fps, event.slowdown_factor)
        self.what_if_ms = (
            alpha * max(measured, projected) + (1.0 - alpha) * self.what_if_ms
        )
        stay_projected = self.project(
            max(n_attached, 1) * fps, event.slowdown_factor
        )
        self.stay_ms = (
            alpha * max(measured, stay_projected) + (1.0 - alpha) * self.stay_ms
        )
        self.monitor_baseline_ms = measured
        return []

    def _on_monitor_sample(self, event: MonitorSample) -> List[Effect]:
        """Trigger type 3: noticeable processing-time drift at constant
        users — plus the idle win-back refresh."""
        if not self.alive:
            return []
        if event.measured_ms is None:
            # No recent user traffic. If the cached what-if still says
            # "loaded" (left over from departed users), refresh it so an
            # idle node can win users back.
            if (
                self.what_if_ms
                > IDLE_REFRESH_FACTOR * event.idle_floor_ms
                and not self.attached
            ):
                self.seq_num += 1
                effects = self._stale(event.now, "idle")
                effects.append(ScheduleTestWorkload("idle", delayed=False))
                return effects
            return []
        baseline = self.monitor_baseline_ms
        if baseline <= 0:
            return []
        drift = abs(event.measured_ms - baseline) / baseline
        if drift > PERF_MONITOR_THRESHOLD:
            self.seq_num += 1
            effects = self._stale(event.now, "drift")
            effects.append(ScheduleTestWorkload("drift", delayed=False))
            return effects
        return []

    def _on_node_failed(self, event: NodeFailed) -> List[Effect]:
        """The node crashed: all attached users lose their frames;
        clients find out through their own failure detection, not us."""
        self.alive = False
        self.attached.clear()
        return []

    def __repr__(self) -> str:
        return (
            f"AdmissionMachine({self.node_id}, alive={self.alive}, "
            f"users={len(self.attached)}, seq={self.seq_num})"
        )
