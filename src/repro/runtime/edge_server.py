"""A live edge node — asyncio backend of the edge driver.

Processing is a real ``asyncio`` sleep of the profile's per-frame time
scaled by ``time_scale`` (default 0.1: a 30 ms frame sleeps 3 ms, so
tests run fast while contention behaviour — a worker pool of size
``parallelism`` with a bounded queue — stays real). Below about 0.03
the sleep is shorter than the selector's 1 ms resolution: an idle loop
stretches it and ``proc_ms`` (wall time / ``time_scale``) inflates.

The what-if cache rules, the test-workload triggers and the ``seqNum``
join protocol are NOT re-implemented here, and neither is their
interpretation: :class:`repro.protocol.driver.EdgeDriver` runs the same
:class:`repro.protocol.admission.AdmissionMachine` and serves the same
Table I handlers as the simulated
:class:`repro.core.edge_server.EdgeServer`, test-workload coalescing
and the attachment lease included. This class owns the transport — the
listener, the op dispatch, heartbeats with backoff — and the worker
pool the frames and the synthetic test frame run through.
"""

from __future__ import annotations

import asyncio
import random
import time
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from repro.geo.point import GeoPoint
from repro.messages import read_field, to_wire
from repro.nodes.hardware import HardwareProfile
from repro.obs.events import CacheMiss, HeartbeatMissed, NodeFail
from repro.obs.tracer import Tracer
from repro.protocol.admission import AdmissionConfig
from repro.protocol.driver import EdgeDriver
from repro.runtime import protocol

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.faults.injector import FaultInjector


class LiveEdgeServer(EdgeDriver):
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
        super().__init__(
            node_id,
            profile,
            AdmissionConfig(standard_fps=standard_fps),
            tracer=tracer if tracer is not None else Tracer.disabled(),
            dedicated=dedicated,
            # ~2x a common RTT, scaled like the frame service
            test_delay_ms=400.0 * time_scale,
        )
        self.point = point
        self.host = host
        self.port = port
        self.manager_host = manager_host
        self.manager_port = manager_port
        self.heartbeat_period_s = heartbeat_period_s
        self.max_heartbeat_backoff_s = max_heartbeat_backoff_s
        self.time_scale = time_scale
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
        #: Gray-node dial: frame service runs ``slowdown``× slower while
        #: heartbeats (and every control-plane reply) stay crisp.
        self.slowdown = 1.0
        #: Optional chaos hooks (wired by the chaos controller): an
        #: injector plus a plan-time clock, consulted before heartbeats.
        self.faults: Optional["FaultInjector"] = None
        self.fault_clock: Callable[[], float] = lambda: 0.0

        self.frames_processed = 0
        self._completions: List[Tuple[float, float]] = []  # (monotonic, sojourn_ms)

        self._server: Optional[asyncio.AbstractServer] = None
        self._semaphore = asyncio.Semaphore(profile.parallelism)
        #: Test frames, delayed test workloads and the periodic loops.
        self._background = protocol.Background()
        self._queue_depth = 0
        self.max_queue_depth = 64
        self._dead = False
        self._open_writers = protocol.OpenConnections()

    # ------------------------------------------------------------------
    # Driver hooks: the wall clock, the worker pool, the address
    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        return not self._dead

    def _now(self) -> float:
        return self.tracer.now()

    def _call_later(
        self, delay_ms: float, callback: Callable[[], None], label: str
    ) -> None:
        self._background.call_later(delay_ms / 1000.0, callback)

    def _start_test_frame(self) -> bool:
        if not self._admit():
            return False
        self._background.spawn(self._test_frame())
        return True

    async def _test_frame(self) -> None:
        sojourn_ms, _, _ = await self._serve()
        self._test_frame_done(sojourn_ms)

    def _recent_mean_sojourn_ms(self) -> Optional[float]:
        cutoff = time.monotonic() - 3.0
        recent = [s for t, s in self._completions if t >= cutoff]
        if not recent:
            return None
        return sum(recent) / len(recent)

    def _idle_floor_ms(self) -> float:
        return self.profile.base_frame_ms * self.slowdown

    def _position(self) -> Tuple[GeoPoint, Optional[str]]:
        return self.point, None

    def _utilization(self) -> float:
        return min(1.0, self._queue_depth / self.profile.parallelism)

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
        self._invoke_test_workload()
        await self._background.settled()  # the prime has run
        if self.manager_host is not None and self.manager_port is not None:
            delay_s = await self._heartbeat()
            self._background.spawn(self._heartbeat_loop(delay_s))
        if self.monitor_period_s is not None:
            self._background.spawn(self._monitor_loop(self.monitor_period_s))
        if self.attachment_lease_s is not None:
            self._background.spawn(self._lease_loop(self.attachment_lease_s))

    async def stop(self) -> None:
        """Hard stop: the node vanishes, including live connections.

        A crashing volunteer does not finish in-flight conversations —
        open sockets are severed so attached clients observe a broken
        connection (their failure-detection signal).
        """
        if not self._dead:
            self.tracer.emit(NodeFail(self.tracer.now(), self.node_id))
        self._dead = True
        await self._background.cancel()
        await protocol.stop_serving(self._server, self._open_writers)
        self._server = None

    # ------------------------------------------------------------------
    # Frame processing
    # ------------------------------------------------------------------
    def _admit(self) -> bool:
        """Take a queue slot; False when the bounded queue sheds the frame."""
        if self._queue_depth >= self.max_queue_depth:
            return False
        self._queue_depth += 1
        return True

    async def _serve(self) -> Tuple[float, float, float]:
        """Run one admitted frame through the worker pool, timed from
        when it runs (a test frame's task starts a loop hop after its
        admission; at small ``time_scale`` that hop would dominate).

        Returns ``(sojourn_ms, wait_wall_ms, service_wall_ms)``.
        ``sojourn_ms`` is the unscaled application time (wall sojourn
        divided by ``time_scale``); the wait/service components are
        *wall-clock* ms — they are what the frame reply carries so
        clients can decompose their measured end-to-end latency into
        queue/process/rtt phases exactly.
        """
        arrival = service_start = time.monotonic()
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
        return sojourn_ms, wait_wall_ms, service_wall_ms

    async def _process_frame(self) -> Optional[Tuple[float, float, float]]:
        """One offloaded frame, or None when the queue sheds it."""
        if not self._admit():
            return None
        result = await self._serve()
        self.frames_processed += 1
        self._completions.append((time.monotonic(), result[0]))
        if len(self._completions) > 64:
            del self._completions[:-64]
        return result

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

    async def _monitor_loop(self, period_s: float) -> None:
        """Performance monitor (trigger type 3) on the wall clock — the
        only detection path that catches a gray node."""
        while not self._dead:
            await asyncio.sleep(period_s)
            self._performance_monitor_tick()

    async def _lease_loop(self, lease_s: float) -> None:
        """The attachment lease on the wall clock."""
        while not self._dead:
            await asyncio.sleep(lease_s / 2.0)
            self._expire_stale_attachments(lease_s * 1000.0)

    # ------------------------------------------------------------------
    # Heartbeats
    # ------------------------------------------------------------------
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
        fps = self._machine.config.standard_fps  # a peer that declares none
        if op == "rtt_probe":
            return {"ok": True}  # the measurement is the round trip itself
        if op == "process_probe":
            return {"ok": True, "probe": to_wire(self.process_probe())}
        if op == "join":
            reply = self.join(
                read_field(payload, "user_id", str),
                read_field(payload, "seq_num", int),
                read_field(payload, "fps", float, fps),
            )
            return {"ok": True, "accepted": reply.accepted, "seq_num": reply.seq_num}
        if op == "unexpected_join":
            reply = self.unexpected_join(
                read_field(payload, "user_id", str),
                read_field(payload, "fps", float, fps),
            )
            return {"ok": True, "accepted": reply.accepted}
        if op == "leave":
            self.leave(read_field(payload, "user_id", str))
            return {"ok": True}
        if op == "frame":
            user_id = read_field(payload, "user_id", Optional[str], None)
            if user_id is not None:
                self._last_seen[user_id] = self._now()
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
