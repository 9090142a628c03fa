"""The live client — asyncio backend of the client driver.

All of Algorithm 2's *decisions* — when to discover, which candidates
to probe, the LO/GO ranking, the seqNum-echoing join with
repeat-from-discovery on rejection, backup adoption and the failover
walk — live in :class:`repro.protocol.selection.SelectionMachine`, and
its effects are dispatched by :class:`repro.protocol.driver.ClientDriver`,
the same code the simulated :class:`repro.core.client.EdgeClient` runs.
This class only does the I/O: real TCP requests over standing
connections, wall-clock RTT measurement, retries and breakers.

The client is completion-driven, like the sim: each I/O effect starts
one exchange as a task the client tracks, and the task feeds its result
event back to the driver, which may start the next. A timer the machine
arms goes through the same ``_call_later`` hook as on the sim.
:meth:`LiveClient.select_and_join` starts a round and waits until no
exchange is in flight; :meth:`LiveClient.close` cancels whatever is
still pending.

One consequence of sharing the machine: a ``select_and_join()`` while
already attached to the best-ranked node *stays* (no redundant re-join
bumping the node's seqNum), exactly like the simulated client.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from repro.messages import Address, CandidateList, DiscoveryQuery, ProbeOutcome, ProbeReply
from repro.messages import from_wire, read_field, to_wire
from repro.faults.injector import MANAGER_ID
from repro.policy import build_policy
from repro.sim.random import derive_seed
from repro.geo.point import GeoPoint
from repro.obs.events import (
    BreakerTransition,
    FrameDone,
    FrameStart,
    PhaseSpan,
    RetryScheduled,
)
from repro.obs.tracer import Tracer
from repro.protocol.driver import ClientDriver
from repro.protocol.events import (
    CandidatesReceived,
    DiscoveryFailed,
    FailoverResult,
    ProbesCompleted,
)
from repro.protocol.selection import SelectionConfig
from repro.runtime import protocol
from repro.runtime.protocol import (
    CircuitBreaker,
    PersistentConnection,
    RetryPolicy,
    call_with_retry,
)

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.faults.injector import FaultInjector

#: The live client's default protocol constants. Dwell/hysteresis are
#: disabled because a live ``select_and_join()`` is an *explicit* round
#: (invoked by the application, not a periodic timer) — suppressing its
#: verdict would make the call a silent no-op. A failed round is retried
#: after 200 ms.
_LIVE_DEFAULTS = SelectionConfig(
    min_dwell_ms=0.0,
    switch_penalty_ms=0.0,
    switch_penalty_fraction=0.0,
    retry_delay_ms=200.0,
)

#: What a failed exchange raises: a dead or unreachable peer.
_LINK_ERRORS = (OSError, protocol.ProtocolError, asyncio.TimeoutError)


class LiveClient(ClientDriver):
    """An application user against a live manager + edge fleet.

    Runs the probing procedure of Algorithm 2: discover candidates at
    the manager, ``rtt_probe`` + ``process_probe`` each over standing
    connections, rank with the GO policy, ``Join()`` with the probed
    ``seqNum``, keep the rest as proactively connected backups, and
    offload frames; on a send failure, ``unexpected_join`` the best
    backup.
    """

    #: Selection rounds one :meth:`select_and_join` tries before giving up.
    SELECT_ROUNDS = 4

    def __init__(
        self,
        user_id: str,
        point: GeoPoint,
        manager_host: str,
        manager_port: int,
        *,
        top_n: int = 3,
        policy: str = "go",
        request_timeout: float = 5.0,
        tracer: Optional[Tracer] = None,
        retry_policy: Optional[RetryPolicy] = None,
        breaker_reset_s: float = 2.0,
    ) -> None:
        super().__init__(
            user_id,
            build_policy(policy, seed=derive_seed(0, f"live-policy.{user_id}")),
            replace(_LIVE_DEFAULTS, top_n=top_n),
            tracer=tracer if tracer is not None else Tracer.disabled(),
        )
        self.point = point
        self.manager_host = manager_host
        self.manager_port = manager_port
        self.request_timeout = request_timeout
        self._frame_counter = 0
        #: Manager-request retry (bounded attempts + total-latency budget).
        self.retry_policy = retry_policy or RetryPolicy()
        self.breaker_reset_s = breaker_reset_s
        #: Per-endpoint breakers, persistent across reconnects.
        self.breakers: Dict[str, CircuitBreaker] = {}
        #: Optional chaos hooks, wired by the chaos controller: an
        #: injector, a plan-time clock (plan ms) and a wall-seconds-per-
        #: plan-ms scale for injected delays.
        self.faults: Optional["FaultInjector"] = None
        self.fault_clock: Callable[[], float] = lambda: 0.0
        self.fault_scale: float = 1.0
        self.addresses: Dict[str, Tuple[str, int]] = {}
        #: The standing links: the current edge and the backups.
        self.connections: Dict[str, PersistentConnection] = self.links
        #: The exchanges in flight and the machine's pending timers.
        self._background = protocol.Background()

    # ------------------------------------------------------------------
    # Driver hooks: each I/O effect is one tracked exchange task
    # ------------------------------------------------------------------
    def _now(self) -> float:
        return self.tracer.now()

    def _call_later(
        self, delay_ms: float, callback: Callable[[], None], label: str
    ) -> None:
        self._background.call_later(delay_ms / 1000.0, callback)

    def _send_discovery(self, top_n: int, exclude: Tuple[str, ...]) -> None:
        self._background.spawn(self._discover(top_n, exclude))

    def _probe_candidates(self, node_ids: Tuple[str, ...]) -> None:
        self._background.spawn(self._probe_all(node_ids))

    def _send_join(self, best: ProbeOutcome) -> None:
        self._background.spawn(self._join(best))

    def _send_leave(self, node_id: str, reason: str) -> None:
        self._background.spawn(self._leave(node_id))

    def _send_failover_join(self, backup_id: str) -> None:
        self._background.spawn(self._failover_join(backup_id))

    def _ensure_link(self, node_id: str, rtt_ms: float) -> None:
        if node_id in self.addresses:
            self._connection(node_id)

    def _drop_link(self, node_id: str) -> None:
        """Give up on a node: its link may still be open (an injected
        fault fails an exchange before it touches the socket)."""
        connection = self.links.pop(node_id, None)
        if connection is not None:
            connection.drop()

    def _flush_backlog(self) -> None:
        pass  # the live client has no frame backlog

    # ------------------------------------------------------------------
    # Exchanges (trace-free: decision traces come from the machine)
    # ------------------------------------------------------------------
    async def _fault_gate(self, dst: str, op: str) -> None:
        """Consult the chaos injector (no-op without one).

        A dropped/partitioned/outaged message surfaces as an
        ``asyncio.TimeoutError`` — exactly what the real network would
        eventually produce — so every existing error path (retry,
        failover, breaker) exercises unchanged. Injected delays sleep
        ``extra_delay_ms x fault_scale`` wall milliseconds
        (``fault_scale`` = wall-ms per plan-ms).
        """
        faults = self.faults
        if faults is None:
            return
        verdict = faults.decide(self.user_id, dst, op, self.fault_clock())
        if not verdict.deliver:
            raise asyncio.TimeoutError(
                f"injected {verdict.kind} ({verdict.rule_id}) on {op!r}"
            )
        if verdict.extra_delay_ms > 0.0:
            await asyncio.sleep(verdict.extra_delay_ms * self.fault_scale / 1000.0)

    async def _discover(self, top_n: int, exclude: Tuple[str, ...]) -> None:
        """One discovery round trip (retried under the retry policy);
        refreshes the address book. The manager unreachable after the
        retry budget, or its answer refused (``ok: false``, or a reply
        the wire schema refuses), is ``DiscoveryFailed``: the machine
        falls back to the last candidate list + adopted backups."""
        query = DiscoveryQuery(
            user_id=self.user_id,
            lat=self.point.lat,
            lon=self.point.lon,
            top_n=top_n,
            exclude=exclude,
        )

        async def attempt() -> Dict[str, object]:
            await self._fault_gate(MANAGER_ID, "discover")
            return await protocol.request(
                self.manager_host,
                self.manager_port,
                "discover",
                {"query": to_wire(query)},
                timeout=self.request_timeout,
            )

        def on_retry(attempt_no: int, delay_s: float) -> None:
            self.tracer.emit(
                RetryScheduled(
                    self._now(), self.user_id, "discover", attempt_no,
                    delay_s * 1000.0,
                )
            )

        try:
            reply = await call_with_retry(
                attempt, self.retry_policy, on_retry=on_retry
            )
            if reply.get("ok") is not True:
                raise ValueError(f"discover refused: {reply.get('error')!r}")
            candidates = from_wire(reply.get("candidates"), CandidateList)
            self.addresses.update(
                read_field(reply, "addresses", Dict[str, Address], {})
            )
        except _LINK_ERRORS:
            self._feed(DiscoveryFailed(self._now(), reason="unreachable"))
        except ValueError:
            self._feed(DiscoveryFailed(self._now(), reason="refused"))
        else:
            self._feed(
                CandidatesReceived(
                    self._now(), candidates.node_ids, candidates.widened
                )
            )

    def _breaker(self, node_id: str) -> CircuitBreaker:
        """The per-endpoint breaker — shared across reconnects so a dead
        edge's failure history survives the connection object."""
        breaker = self.breakers.get(node_id)
        if breaker is None:

            def on_transition(old: str, new: str) -> None:
                self.tracer.emit(
                    BreakerTransition(self._now(), node_id, old, new)
                )

            breaker = CircuitBreaker(
                reset_timeout_s=self.breaker_reset_s, on_transition=on_transition
            )
            self.breakers[node_id] = breaker
        return breaker

    def _connection(self, node_id: str) -> PersistentConnection:
        """The standing link to a node (KeyError: address unknown)."""
        connection = self.links.get(node_id)
        if connection is None:
            host, port = self.addresses[node_id]
            connection = PersistentConnection(
                host,
                port,
                self.request_timeout,
                breaker=self._breaker(node_id),
            )
            self.links[node_id] = connection
        return connection

    async def probe(self, node_id: str) -> Optional[ProbeOutcome]:
        """``RTT_probe`` + ``Process_probe`` one candidate; None if dead, or
        if the wire schema refuses its reply (the link is kept)."""
        self._probe_sent(node_id)
        try:
            await self._fault_gate(node_id, "probe")
            connection = self._connection(node_id)
            start = time.monotonic()
            await connection.request("rtt_probe")
            rtt_ms = (time.monotonic() - start) * 1000.0
            reply = await connection.request("process_probe")
        except _LINK_ERRORS:
            self._drop_link(node_id)
            return None
        try:
            probe = from_wire(reply.get("probe"), ProbeReply)
        except ValueError:
            return None
        now = self._now()
        return self._probe_answered(node_id, rtt_ms, probe, now, now)

    async def _probe_all(self, node_ids: Tuple[str, ...]) -> None:
        outcomes = [await self.probe(node_id) for node_id in node_ids]
        self._feed(
            ProbesCompleted(
                self._now(), tuple(o for o in outcomes if o is not None)
            )
        )

    async def _join(self, best: ProbeOutcome) -> None:
        """``Join()`` the chosen candidate, echoing its probed seqNum."""
        attempted_at = self._now()
        try:
            await self._fault_gate(best.node_id, "join")
            reply = await self._connection(best.node_id).request(
                "join",
                {"user_id": self.user_id, "seq_num": best.seq_num, "fps": 20.0},
            )
        except (*_LINK_ERRORS, KeyError):
            self._join_answered(best.node_id, False, False, attempted_at)
            return
        self._join_answered(
            best.node_id, bool(reply.get("accepted")), True, attempted_at
        )

    async def _failover_join(self, backup_id: str) -> None:
        """``Unexpected_join()`` one backup over its standing connection."""
        start = time.monotonic()
        try:
            await self._fault_gate(backup_id, "unexpected_join")
            reply = await self._connection(backup_id).request(
                "unexpected_join", {"user_id": self.user_id, "fps": 20.0}
            )
        except (*_LINK_ERRORS, KeyError):
            self._feed(FailoverResult(self._now(), backup_id, accepted=False))
            return
        self._feed(
            FailoverResult(
                self._now(),
                backup_id,
                accepted=bool(reply.get("accepted")),
                rtt_ms=(time.monotonic() - start) * 1000.0,
            )
        )

    async def _leave(self, node_id: str) -> None:
        """``Leave()`` over the standing link, or over a connection of its
        own once the link has been pruned."""
        payload = {"user_id": self.user_id}
        try:
            await self._fault_gate(node_id, "leave")
            connection = self.links.get(node_id)
            if connection is not None:
                await connection.request("leave", payload)
            else:
                host, port = self.addresses[node_id]
                await protocol.request(
                    host, port, "leave", payload, timeout=self.request_timeout
                )
        except (*_LINK_ERRORS, KeyError):
            pass

    # ------------------------------------------------------------------
    # Selection round
    # ------------------------------------------------------------------
    async def select_and_join(self) -> str:
        """One full selection round (discovery -> probing -> join).

        Returns the chosen node id (the current edge when the machine
        decides staying put is best) once no exchange is in flight. A
        round that ends detached is retried after the machine's retry
        delay, up to :attr:`SELECT_ROUNDS` rounds.

        Raises:
            RuntimeError: when no candidate accepts after retries.
        """
        for attempt in range(self.SELECT_ROUNDS):
            if attempt:
                await asyncio.sleep(self._machine.config.retry_delay_ms / 1000.0)
            self._begin_selection_round()
            await self._background.settled()
            # This call paces its own retries: the wait above stands in
            # for the retry timer a failed round armed.
            self._background.cancel_timers()
            if self.current_edge is not None:
                return self.current_edge
        raise RuntimeError(f"{self.user_id}: no candidate accepted the join")

    # ------------------------------------------------------------------
    async def offload_frame(self) -> Optional[float]:
        """Send one frame; returns end-to-end latency (ms) or None (lost).

        On failure the failure-monitor path runs: ``unexpected_join`` the
        first live backup over its standing connection, and when every
        backup is dead too (and the reactive re-discovery the machine
        then runs fails), :meth:`select_and_join`.
        """
        if self.current_edge is None:
            raise RuntimeError("not attached to any edge node")
        edge_id = self.current_edge
        self._frame_counter += 1
        frame_id = self._frame_counter
        connection = self._connection(edge_id)
        tracer = self.tracer
        created_ms = tracer.now()
        if tracer.enabled:
            tracer.emit(FrameStart(created_ms, self.user_id, edge_id, frame_id))
        start = time.monotonic()
        try:
            if self.faults is not None:  # no gate coroutine per frame without one
                await self._fault_gate(edge_id, "frame")
            reply = await connection.request("frame", {"user_id": self.user_id})
        except _LINK_ERRORS:
            tracer.emit(
                FrameDone(tracer.now(), self.user_id, edge_id, frame_id,
                          created_ms, None)
            )
            self.on_edge_failure(edge_id)
            await self._background.settled()
            if self.current_edge is None:
                await self.select_and_join()
            return None
        if not reply.get("ok"):
            tracer.emit(
                FrameDone(tracer.now(), self.user_id, edge_id, frame_id,
                          created_ms, None)
            )
            return None  # overloaded node shed the frame
        latency_ms = (time.monotonic() - start) * 1000.0
        if tracer.enabled:
            now = tracer.now()
            # Decompose the measured latency with the node's wall-clock
            # wait/service split; the remainder is time on the wire.
            wait_ms = float(reply.get("wait_wall_ms", 0.0))
            service_ms = float(reply.get("service_wall_ms", 0.0))
            rtt_ms = max(0.0, latency_ms - wait_ms - service_ms)
            tracer.emit(PhaseSpan(now, self.user_id, frame_id, "rtt", rtt_ms))
            tracer.emit(PhaseSpan(now, self.user_id, frame_id, "queue", wait_ms))
            tracer.emit(
                PhaseSpan(now, self.user_id, frame_id, "process", service_ms)
            )
        tracer.emit(
            FrameDone(tracer.now(), self.user_id, edge_id, frame_id,
                      created_ms, latency_ms)
        )
        return latency_ms

    async def close(self) -> None:
        """Cancel pending timers and exchanges, leave, close every link."""
        self._stopped = True
        await self._background.cancel()
        if self.current_edge is not None:
            await self._leave(self.current_edge)
            self.current_edge = None
        for connection in list(self.links.values()):
            await connection.close()
        self.links.clear()
