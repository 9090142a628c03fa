"""A live edge node — asyncio driver over the protocol core.

Processing is a real ``asyncio`` sleep of the profile's per-frame time
scaled by ``time_scale`` (default 0.1: a 30 ms frame sleeps 3 ms, so
tests run fast while contention behaviour — a worker pool of size
``parallelism`` with a bounded queue — stays real). Below about 0.03
the sleep is shorter than the selector's 1 ms resolution: an idle loop
stretches it and ``proc_ms`` (wall time / ``time_scale``) inflates.

The what-if cache rules, the test-workload triggers and the ``seqNum``
join protocol are NOT re-implemented here: this driver executes the
same :class:`repro.protocol.admission.AdmissionMachine` as the
simulated :class:`repro.core.edge_server.EdgeServer`, so the cache
semantics are identical by construction — including the EWMA blending
of successive what-if values, which this backend previously skipped.
"""

from __future__ import annotations

import asyncio
import random
import time
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.geo import geohash as gh
from repro.geo.point import GeoPoint
from repro.messages import NodeStatus, ProbeReply, read_field, to_wire
from repro.nodes.hardware import HardwareProfile
from repro.nodes.processing import analytic_sojourn_ms
from repro.obs.events import (
    AttachmentExpired,
    CacheMiss,
    HeartbeatMissed,
    NodeFail,
    TestWorkloadInvoked,
)
from repro.obs.tracer import Tracer
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
    ProbeRequested,
    TestWorkloadCompleted,
    UnexpectedJoinRequested,
)
from repro.runtime import protocol

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.faults.injector import FaultInjector


class LiveEdgeServer:
    """One volunteer/dedicated edge node on a localhost port."""

    def __init__(
        self,
        node_id: str,
        profile: HardwareProfile,
        point: GeoPoint,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        manager_host: Optional[str] = None,
        manager_port: Optional[int] = None,
        heartbeat_period_s: float = 1.0,
        max_heartbeat_backoff_s: float = 8.0,
        time_scale: float = 0.1,
        standard_fps: float = 20.0,
        dedicated: bool = False,
        tracer: Optional[Tracer] = None,
        monitor_period_s: Optional[float] = None,
        attachment_lease_s: Optional[float] = None,
    ) -> None:
        if time_scale <= 0:
            raise ValueError(f"time_scale must be positive: {time_scale}")
        self.node_id = node_id
        self.profile = profile
        self.point = point
        self.host = host
        self.port = port
        self.manager_host = manager_host
        self.manager_port = manager_port
        self.heartbeat_period_s = heartbeat_period_s
        self.max_heartbeat_backoff_s = max_heartbeat_backoff_s
        self.time_scale = time_scale
        self.standard_fps = standard_fps
        self.dedicated = dedicated
        self.tracer = tracer if tracer is not None else Tracer.disabled()
        self.heartbeat_failures = 0
        self._backoff_rng = random.Random(node_id)
        #: Performance-monitor cadence (trigger type 3). None keeps the
        #: monitor off — the default, matching the original live node.
        self.monitor_period_s = monitor_period_s
        #: Admission lease: evict users whose frames stop arriving for
        #: this long (cleanup for a Leave() lost to a partition, or
        #: skipped by a client that believed this node dead). None — the
        #: default — disables expiry.
        self.attachment_lease_s = attachment_lease_s
        self._last_seen: Dict[str, float] = {}
        #: Gray-node dial: frame service runs ``slowdown``× slower while
        #: heartbeats (and every control-plane reply) stay crisp.
        self.slowdown = 1.0
        #: Optional chaos hooks (wired by the chaos controller): an
        #: injector plus a plan-time clock, consulted before heartbeats.
        self.faults: Optional["FaultInjector"] = None
        self.fault_clock: Callable[[], float] = lambda: 0.0

        #: The sans-IO admission core this driver executes (shared with
        #: the simulated backend).
        self._machine = AdmissionMachine(
            node_id,
            AdmissionConfig(standard_fps=standard_fps),
            initial_ms=profile.base_frame_ms,
            project=lambda fps, slowdown: analytic_sojourn_ms(
                self.profile, fps, slowdown_factor=slowdown
            ),
            detail_guard=lambda: self.tracer.enabled,
        )
        self.test_workload_invocations = 0
        self.frames_processed = 0
        self._completions: List[Tuple[float, float]] = []  # (monotonic, sojourn_ms)
        #: (point, its geohash): re-encoded when ``point`` is replaced
        self._geohash: Optional[Tuple[GeoPoint, str]] = None

        self._server: Optional[asyncio.AbstractServer] = None
        self._semaphore = asyncio.Semaphore(profile.parallelism)
        self._heartbeat_task: Optional[asyncio.Task] = None
        self._monitor_task: Optional[asyncio.Task] = None
        self._lease_task: Optional[asyncio.Task] = None
        self._queue_depth = 0
        self.max_queue_depth = 64
        self._dead = False
        self._open_writers = protocol.OpenConnections()

    # ------------------------------------------------------------------
    # Protocol-core state, exposed on the driver for tests/status.
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

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Listen, prime the what-if cache and, given a manager, register.

        The first heartbeat is sent inline: when a manager (or a
        :class:`~repro.controlplane.live_driver.RouterServer`) answers
        it, this returns with the node in the registry. A refused,
        dropped or timed-out first heartbeat is a ``HeartbeatMissed``
        with backoff, as any later one is, and this still returns —
        within the request's own timeout; the loop keeps retrying.
        """
        self._open_writers.stopped = False
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=protocol.MAX_FRAME_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.tracer.enabled:
            self.tracer.emit(CacheMiss(self.tracer.now(), self.node_id, "prime"))
        await self._invoke_test_workload()
        if self.manager_host is not None and self.manager_port is not None:
            delay_s = await self._heartbeat()
            self._heartbeat_task = asyncio.ensure_future(self._heartbeat_loop(delay_s))
        if self.monitor_period_s is not None:
            self._monitor_task = asyncio.ensure_future(self._monitor_loop())
        if self.attachment_lease_s is not None:
            self._lease_task = asyncio.ensure_future(self._lease_loop())

    async def stop(self) -> None:
        """Hard stop: the node vanishes, including live connections.

        A crashing volunteer does not finish in-flight conversations —
        open sockets are severed so attached clients observe a broken
        connection (their failure-detection signal).
        """
        if not self._dead:
            self.tracer.emit(NodeFail(self.tracer.now(), self.node_id))
        self._dead = True
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            self._heartbeat_task = None
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            self._monitor_task = None
        if self._lease_task is not None:
            self._lease_task.cancel()
            self._lease_task = None
        await protocol.stop_serving(self._server, self._open_writers)
        self._server = None

    # ------------------------------------------------------------------
    # Effect execution
    # ------------------------------------------------------------------
    def _run_effects(self, effects: List[Effect]) -> Optional[Effect]:
        """Execute side effects in order; return the reply effect (if any)."""
        reply: Optional[Effect] = None
        for effect in effects:
            if isinstance(effect, EmitTrace):
                self.tracer.emit(effect.event)
            elif isinstance(effect, ScheduleTestWorkload):
                if effect.delayed:
                    asyncio.ensure_future(self._delayed_test_workload())
                else:
                    asyncio.ensure_future(self._invoke_test_workload())
            elif isinstance(effect, (ReplyProbe, ReplyJoin)):
                reply = effect
            else:  # pragma: no cover - forward-compatibility guard
                raise TypeError(f"unhandled effect {type(effect).__name__}")
        return reply

    # ------------------------------------------------------------------
    # Frame processing
    # ------------------------------------------------------------------
    async def _process_frame(
        self, synthetic: bool = False
    ) -> Optional[Tuple[float, float, float]]:
        """Run one frame through the worker pool.

        Returns ``(sojourn_ms, wait_wall_ms, service_wall_ms)`` or None
        when the queue sheds the frame. ``sojourn_ms`` is the unscaled
        application time (wall sojourn divided by ``time_scale``);
        the wait/service components are *wall-clock* ms — they are what
        the frame reply carries so clients can decompose their measured
        end-to-end latency into queue/process/rtt phases exactly.
        """
        if self._queue_depth >= self.max_queue_depth:
            return None
        self._queue_depth += 1
        arrival = time.monotonic()
        service_start = arrival
        try:
            async with self._semaphore:
                service_start = time.monotonic()
                await asyncio.sleep(
                    self.profile.base_frame_ms / 1000.0 * self.time_scale
                    * self.slowdown
                )
        finally:
            self._queue_depth -= 1
        done = time.monotonic()
        wait_wall_ms = (service_start - arrival) * 1000.0
        service_wall_ms = (done - service_start) * 1000.0
        sojourn_ms = (done - arrival) / self.time_scale * 1000.0
        if not synthetic:
            self.frames_processed += 1
            self._completions.append((done, sojourn_ms))
            if len(self._completions) > 64:
                del self._completions[:-64]
        return sojourn_ms, wait_wall_ms, service_wall_ms

    def _recent_mean_sojourn_ms(self) -> Optional[float]:
        cutoff = time.monotonic() - 3.0
        recent = [s for t, s in self._completions if t >= cutoff]
        if not recent:
            return None
        return sum(recent) / len(recent)

    async def _invoke_test_workload(self) -> None:
        """Run the "what-if" synthetic frame through the real worker
        pool, then let the machine fold the measured sojourn into the
        cache (EWMA blend with the demand projection)."""
        self.test_workload_invocations += 1
        result = await self._process_frame(synthetic=True)
        if result is None:
            return
        self.tracer.emit(TestWorkloadInvoked(self.tracer.now(), self.node_id))
        self._run_effects(
            self._machine.handle(
                TestWorkloadCompleted(
                    self.tracer.now(), result[0], slowdown_factor=self.slowdown
                )
            )
        )

    async def _delayed_test_workload(self) -> None:
        """Join-triggered invocation, delayed by ~2x a common RTT
        (scaled), so it observes the new user's traffic."""
        await asyncio.sleep(0.04 * self.time_scale * 10)
        await self._invoke_test_workload()

    def set_slowdown(self, factor: float) -> None:
        """Dial frame-service speed (gray-node injection / host load).

        Only the data plane slows down — heartbeats and probe replies
        stay instant, which is exactly what makes a gray node invisible
        to liveness checks and visible only to the performance
        monitor's drift trigger.
        """
        if factor < 1.0:
            raise ValueError(f"slowdown factor must be >= 1.0: {factor}")
        self.slowdown = factor

    async def _monitor_loop(self) -> None:
        """Performance monitor (trigger type 3) on the wall clock.

        Mirrors the simulated node's periodic
        :class:`~repro.protocol.events.MonitorSample` feed: the machine
        compares the recently *measured* sojourns against its cached
        baseline and refreshes the what-if cache on noticeable drift —
        the only detection path that catches a gray node.
        """
        assert self.monitor_period_s is not None
        while not self._dead:
            await asyncio.sleep(self.monitor_period_s)
            if self._dead:
                return
            self._run_effects(
                self._machine.handle(
                    MonitorSample(
                        self.tracer.now(),
                        measured_ms=self._recent_mean_sojourn_ms(),
                        idle_floor_ms=self.profile.base_frame_ms * self.slowdown,
                    )
                )
            )

    async def _lease_loop(self) -> None:
        """Evict attached users whose frames stopped arriving.

        The live twin of the simulated node's attachment lease: a
        ``Leave()`` lost to a partition (or skipped by a client that
        presumed this node dead) would otherwise strand admission state
        forever. Expiry feeds the machine a plain
        :class:`~repro.protocol.events.LeaveRequested`, so the usual
        trigger-type-2 cache refresh happens.
        """
        assert self.attachment_lease_s is not None
        lease_s = self.attachment_lease_s
        while not self._dead:
            await asyncio.sleep(lease_s / 2.0)
            if self._dead:
                return
            now = time.monotonic()
            for user_id in list(self._machine.attached):
                idle_s = now - self._last_seen.get(user_id, now)
                if idle_s < lease_s:
                    continue
                self._last_seen.pop(user_id, None)
                self.tracer.emit(
                    AttachmentExpired(
                        self.tracer.now(), self.node_id, user_id, idle_s * 1000.0
                    )
                )
                self._run_effects(
                    self._machine.handle(
                        LeaveRequested(self.tracer.now(), user_id)
                    )
                )

    # ------------------------------------------------------------------
    # Heartbeats
    # ------------------------------------------------------------------
    def status(self) -> NodeStatus:
        point = self.point
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
            utilization=min(1.0, self._queue_depth / self.profile.parallelism),
            dedicated=self.dedicated,
        )

    async def _heartbeat(self) -> float:
        """Send one heartbeat; return the delay until the next.

        A flat retry-next-period loop hammers an unreachable manager at
        full rate forever (and every node in lockstep). Consecutive
        failures instead double the delay up to ``max_heartbeat_backoff_s``
        with +/-50% jitter so a recovering manager is not hit by a
        synchronized thundering herd; one success resets the cadence.
        """
        assert self.manager_host is not None and self.manager_port is not None
        try:
            if self.faults is not None:
                verdict = self.faults.decide(
                    self.node_id, "central-manager", "heartbeat",
                    self.fault_clock(),
                )
                if not verdict.deliver:
                    raise asyncio.TimeoutError(
                        f"injected {verdict.kind} ({verdict.rule_id})"
                    )
            await protocol.request(
                self.manager_host,
                self.manager_port,
                "heartbeat",
                {
                    "status": to_wire(self.status()),
                    "host": self.host,
                    "port": self.port,
                },
            )
        except (OSError, protocol.ProtocolError, asyncio.TimeoutError):
            self.heartbeat_failures += 1
            backoff = min(
                self.heartbeat_period_s * (2.0 ** min(self.heartbeat_failures, 6)),
                self.max_heartbeat_backoff_s,
            )
            delay_s = backoff * (0.5 + self._backoff_rng.random())
            self.tracer.emit(
                HeartbeatMissed(
                    self.tracer.now(),
                    self.node_id,
                    self.heartbeat_failures,
                    delay_s * 1000.0,
                )
            )
            return delay_s
        self.heartbeat_failures = 0
        return self.heartbeat_period_s

    async def _heartbeat_loop(self, delay_s: float) -> None:
        """Every heartbeat after :meth:`start`'s inline first one."""
        while True:
            await asyncio.sleep(delay_s)
            delay_s = await self._heartbeat()

    # ------------------------------------------------------------------
    # Connection handling / dispatch
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        async def dispatch(frame: dict) -> Optional[dict]:
            # a dead node neither starts nor finishes a conversation
            if self._dead:
                return None
            reply = await self._dispatch(frame)
            return None if self._dead else reply

        await protocol.serve_connection(reader, writer, dispatch, self._open_writers)

    async def _dispatch(self, frame: dict) -> dict:
        try:
            return await self._answer(frame)
        except ValueError as exc:  # an argument the wire schema refuses
            return {"ok": False, "error": str(exc)}

    async def _answer(self, frame: dict) -> dict:
        op = frame["op"]
        payload = frame["payload"]
        now = self.tracer.now()
        if op == "rtt_probe":
            return {"ok": True}  # the measurement is the round trip itself
        if op == "process_probe":
            reply = self._run_effects(
                self._machine.handle(
                    ProbeRequested(
                        now, recent_mean_ms=self._recent_mean_sojourn_ms()
                    )
                )
            )
            assert isinstance(reply, ReplyProbe)
            probe = ProbeReply(
                node_id=self.node_id,
                what_if_ms=reply.what_if_ms,
                seq_num=reply.seq_num,
                attached_users=reply.attached_users,
                current_proc_ms=reply.current_proc_ms,
                stay_ms=reply.stay_ms,
            )
            return {"ok": True, "probe": to_wire(probe)}
        if op == "join":
            user_id = read_field(payload, "user_id", str)
            seq_num = read_field(payload, "seq_num", int)
            fps = read_field(payload, "fps", float, self.standard_fps)
            reply = self._run_effects(
                self._machine.handle(JoinRequested(now, user_id, seq_num, fps))
            )
            assert isinstance(reply, ReplyJoin)
            if reply.accepted:
                self._last_seen[user_id] = time.monotonic()
            return {"ok": True, "accepted": reply.accepted, "seq_num": reply.seq_num}
        if op == "unexpected_join":
            user_id = read_field(payload, "user_id", str)
            fps = read_field(payload, "fps", float, self.standard_fps)
            reply = self._run_effects(
                self._machine.handle(UnexpectedJoinRequested(now, user_id, fps))
            )
            assert isinstance(reply, ReplyJoin)
            if reply.accepted:
                self._last_seen[user_id] = time.monotonic()
            return {"ok": True, "accepted": reply.accepted}
        if op == "leave":
            user_id = read_field(payload, "user_id", str)
            self._last_seen.pop(user_id, None)
            self._run_effects(self._machine.handle(LeaveRequested(now, user_id)))
            return {"ok": True}
        if op == "frame":
            user_id = read_field(payload, "user_id", Optional[str], None)
            if user_id is not None:
                self._last_seen[user_id] = time.monotonic()
            result = await self._process_frame()
            if result is None:
                return {"ok": False, "error": "overloaded"}
            sojourn, wait_wall_ms, service_wall_ms = result
            return {
                "ok": True,
                "proc_ms": sojourn,
                # wall-clock split for the client's phase decomposition
                "wait_wall_ms": wait_wall_ms,
                "service_wall_ms": service_wall_ms,
                "result": "objects-detected",
            }
        if op == "status":
            return {
                "ok": True,
                "node_id": self.node_id,
                "attached": sorted(self.attached),
                "seq_num": self.seq_num,
                "what_if_ms": self.what_if_ms,
                "frames_processed": self.frames_processed,
                "test_workload_invocations": self.test_workload_invocations,
            }
        return {"ok": False, "error": f"unknown op: {op!r}"}
