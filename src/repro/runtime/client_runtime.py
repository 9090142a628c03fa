"""The live client — asyncio driver over the protocol core.

All of Algorithm 2's *decisions* — when to discover, which candidates
to probe, the LO/GO ranking, the seqNum-echoing join with
repeat-from-discovery on rejection, backup adoption and the failover
walk — live in :class:`repro.protocol.selection.SelectionMachine`, the
same machine the simulated :class:`repro.core.client.EdgeClient`
drives. This class only does the I/O: real TCP requests over standing
connections, wall-clock RTT measurement, and the translation between
awaited socket replies and protocol events/effects.

One consequence of sharing the machine: a ``select_and_join()`` while
already attached to the best-ranked node now *stays* (no redundant
re-join bumping the node's seqNum), exactly like the simulated client —
previously the live client re-joined unconditionally.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Tuple

from repro.messages import Address, CandidateList, DiscoveryQuery, ProbeOutcome, ProbeReply
from repro.messages import from_wire, read_field, to_wire
from repro.faults.injector import MANAGER_ID
from repro.policy import PolicySpec, SelectionPolicy, build_policy
from repro.sim.random import derive_seed
from repro.geo.point import GeoPoint
from repro.obs.events import (
    BreakerTransition,
    DiscoveryIssued,
    DiscoveryReturned,
    FrameDone,
    FrameStart,
    PhaseSpan,
    ProbeAnswered,
    ProbeSent,
    RetryScheduled,
)
from repro.obs.tracer import Tracer
from repro.protocol.effects import (
    Attached,
    Effect,
    EmitTrace,
    FlushBacklog,
    ProbeCandidates,
    SendDiscovery,
    SendFailoverJoin,
    SendJoin,
    SendLeave,
    StartTimer,
    UpdateBackups,
)
from repro.protocol.events import (
    CandidatesReceived,
    DiscoveryFailed,
    EdgeFailed,
    FailoverResult,
    JoinResult,
    ProbesCompleted,
    ProtocolEvent,
    RoundStarted,
)
from repro.protocol.selection import SelectionConfig, SelectionMachine
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
#: verdict would make the call a silent no-op.
_LIVE_DEFAULTS = SelectionConfig(
    min_dwell_ms=0.0, switch_penalty_ms=0.0, switch_penalty_fraction=0.0
)


class LiveClient:
    """An application user against a live manager + edge fleet.

    Runs the probing procedure of Algorithm 2: discover candidates at
    the manager, ``rtt_probe`` + ``process_probe`` each over standing
    connections, rank with the GO policy, ``Join()`` with the probed
    ``seqNum``, keep the rest as proactively connected backups, and
    offload frames; on a send failure, ``unexpected_join`` the best
    backup.
    """

    def __init__(
        self,
        user_id: str,
        point: GeoPoint,
        manager_host: str,
        manager_port: int,
        *,
        top_n: int = 3,
        policy: Optional[PolicySpec] = None,
        request_timeout: float = 5.0,
        tracer: Optional[Tracer] = None,
        selection_config: Optional[SelectionConfig] = None,
        retry_policy: Optional[RetryPolicy] = None,
        breaker_failure_threshold: int = 3,
        breaker_reset_s: float = 2.0,
        max_reconnect_attempts: int = 3,
    ) -> None:
        self.user_id = user_id
        self.point = point
        self.manager_host = manager_host
        self.manager_port = manager_port
        self.request_timeout = request_timeout
        self.tracer = tracer if tracer is not None else Tracer.disabled()
        self._frame_counter = 0
        #: Manager-request retry (bounded attempts + total-latency budget).
        self.retry_policy = retry_policy or RetryPolicy()
        self.breaker_failure_threshold = breaker_failure_threshold
        self.breaker_reset_s = breaker_reset_s
        self.max_reconnect_attempts = max_reconnect_attempts
        #: Per-endpoint breakers, persistent across reconnects.
        self.breakers: Dict[str, CircuitBreaker] = {}
        #: Optional chaos hooks, wired by the chaos controller: an
        #: injector, a plan-time clock (plan ms) and a wall-seconds-per-
        #: plan-ms scale for injected delays.
        self.faults: Optional["FaultInjector"] = None
        self.fault_clock: Callable[[], float] = lambda: 0.0
        self.fault_scale: float = 1.0

        config = selection_config
        if config is None:
            config = SelectionConfig(
                top_n=top_n,
                min_dwell_ms=_LIVE_DEFAULTS.min_dwell_ms,
                switch_penalty_ms=_LIVE_DEFAULTS.switch_penalty_ms,
                switch_penalty_fraction=_LIVE_DEFAULTS.switch_penalty_fraction,
            )
        #: The sans-IO protocol core this driver executes. The policy
        #: spec accepts a repro.policy registry name, a policy object,
        #: or a legacy ranking callable; its private randomness is
        #: seeded deterministically from the user id.
        self._machine = SelectionMachine(
            user_id,
            build_policy(
                policy if policy is not None else "go",
                seed=derive_seed(0, f"live-policy.{user_id}"),
            ),
            config,
            detail_guard=lambda: self.tracer.enabled,
        )
        self._round_failed = False

        self.addresses: Dict[str, Tuple[str, int]] = {}
        self.connections: Dict[str, PersistentConnection] = {}
        self.probes_sent = 0
        self.joins_rejected = 0
        self.failovers = 0

    # ------------------------------------------------------------------
    # Protocol-core state, exposed on the driver.
    # ------------------------------------------------------------------
    @property
    def current_edge(self) -> Optional[str]:
        return self._machine.current_edge

    @current_edge.setter
    def current_edge(self, node_id: Optional[str]) -> None:
        self._machine.current_edge = node_id

    @property
    def top_n(self) -> int:
        return self._machine.top_n

    @top_n.setter
    def top_n(self, value: int) -> None:
        self._machine.top_n = value

    @property
    def policy(self) -> SelectionPolicy:
        return self._machine.policy

    @policy.setter
    def policy(self, policy: PolicySpec) -> None:
        if isinstance(policy, str):
            policy = build_policy(
                policy, seed=derive_seed(0, f"live-policy.{self.user_id}")
            )
        self._machine.policy = policy

    @property
    def backups(self) -> List[str]:
        return list(self._machine.monitor.backups)

    def _now(self) -> float:
        return self.tracer.now()

    # ------------------------------------------------------------------
    # Protocol-event feed + effect execution
    # ------------------------------------------------------------------
    async def _drive(self, event: ProtocolEvent) -> None:
        """Advance the protocol machine, performing the I/O it asks for.

        Event-producing effects (discovery, probe fan-out, join,
        failover join) run their I/O inline and feed the result back to
        the machine before the drive returns, so one ``_drive`` call
        plays a whole protocol exchange to quiescence.
        """
        pending: Deque[Effect] = deque(self._machine.handle(event))
        while pending:
            effect = pending.popleft()
            if isinstance(effect, EmitTrace):
                self.tracer.emit(effect.event)
            elif isinstance(effect, SendDiscovery):
                try:
                    node_ids, widened = await self._discover_io(
                        effect.top_n, effect.exclude
                    )
                except (OSError, protocol.ProtocolError, asyncio.TimeoutError, ValueError) as exc:
                    # Manager unreachable after the retry budget, or its
                    # answer refused (ValueError): degrade gracefully — the
                    # machine falls back to the last candidate list + adopted backups.
                    reason = "refused" if isinstance(exc, ValueError) else "unreachable"
                    pending.extend(
                        self._machine.handle(DiscoveryFailed(self._now(), reason=reason))
                    )
                else:
                    pending.extend(
                        self._machine.handle(
                            CandidatesReceived(self._now(), node_ids, widened)
                        )
                    )
            elif isinstance(effect, ProbeCandidates):
                outcomes = [
                    o
                    for o in [await self.probe(c) for c in effect.node_ids]
                    if o is not None
                ]
                pending.extend(
                    self._machine.handle(
                        ProbesCompleted(self._now(), tuple(outcomes))
                    )
                )
            elif isinstance(effect, SendJoin):
                pending.extend(
                    self._machine.handle(await self._join_io(effect.outcome))
                )
            elif isinstance(effect, SendLeave):
                await self.leave(effect.node_id)
            elif isinstance(effect, SendFailoverJoin):
                pending.extend(
                    self._machine.handle(
                        await self._failover_join_io(effect.node_id)
                    )
                )
            elif isinstance(effect, Attached):
                try:
                    await self._connection(effect.node_id)
                except KeyError:  # pragma: no cover - address unknown
                    pass
            elif isinstance(effect, UpdateBackups):
                # keep backup connections warm (proactive establishment)
                for outcome in effect.outcomes:
                    try:
                        await self._connection(outcome.node_id)
                    except KeyError:  # pragma: no cover - address unknown
                        pass
            elif isinstance(effect, FlushBacklog):
                pass  # the live client has no frame backlog
            elif isinstance(effect, StartTimer):
                # Round failed while detached; the select_and_join retry
                # loop owns the pacing.
                self._round_failed = True
            else:  # pragma: no cover - forward-compatibility guard
                raise TypeError(f"unhandled effect {type(effect).__name__}")

    # ------------------------------------------------------------------
    # I/O helpers (trace-free: decision traces come from the machine)
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

    async def _discover_io(
        self, top_n: int, exclude: Tuple[str, ...]
    ) -> Tuple[Tuple[str, ...], bool]:
        """One discovery round trip (retried under the retry policy);
        refreshes the address book. ValueError: ``ok: false``, or a reply
        the wire schema refuses."""
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

        reply = await call_with_retry(
            attempt, self.retry_policy, on_retry=on_retry
        )
        if reply.get("ok") is not True:
            raise ValueError(f"discover refused: {reply.get('error')!r}")
        candidates = from_wire(reply.get("candidates"), CandidateList)
        self.addresses.update(read_field(reply, "addresses", Dict[str, Address], {}))
        return candidates.node_ids, candidates.widened

    async def discover(self) -> List[str]:
        """Edge discovery at the Central Manager (standalone API: emits
        the decision traces a machine-driven round would)."""
        self.tracer.emit(DiscoveryIssued(self._now(), self.user_id))
        node_ids, widened = await self._discover_io(self.top_n, ())
        if self.tracer.enabled:
            self.tracer.emit(
                DiscoveryReturned(
                    self._now(), self.user_id, node_ids, widened=widened
                )
            )
        return list(node_ids)

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
                self.breaker_failure_threshold,
                self.breaker_reset_s,
                on_transition=on_transition,
            )
            self.breakers[node_id] = breaker
        return breaker

    async def _connection(self, node_id: str) -> PersistentConnection:
        connection = self.connections.get(node_id)
        if connection is None:
            host, port = self.addresses[node_id]
            connection = PersistentConnection(
                host,
                port,
                self.request_timeout,
                max_reconnect_attempts=self.max_reconnect_attempts,
                breaker=self._breaker(node_id),
            )
            self.connections[node_id] = connection
        return connection

    def _forget(self, node_id: str) -> None:
        """Give up on a node: its link may still be open (an injected
        fault fails an exchange before it touches the socket)."""
        connection = self.connections.pop(node_id, None)
        if connection is not None:
            connection.drop()

    async def probe(self, node_id: str) -> Optional[ProbeOutcome]:
        """``RTT_probe`` + ``Process_probe`` one candidate; None if dead, or
        if the wire schema refuses its reply (the link is kept)."""
        self.probes_sent += 1
        self.tracer.emit(ProbeSent(self._now(), self.user_id, node_id))
        try:
            await self._fault_gate(node_id, "probe")
            connection = await self._connection(node_id)
            start = time.monotonic()
            await connection.request("rtt_probe")
            rtt_ms = (time.monotonic() - start) * 1000.0
            reply = await connection.request("process_probe")
        except (OSError, protocol.ProtocolError, asyncio.TimeoutError):
            self._forget(node_id)
            return None
        try:
            probe = from_wire(reply.get("probe"), ProbeReply)
        except ValueError:
            return None
        if self.tracer.enabled:
            self.tracer.emit(
                ProbeAnswered(
                    self._now(), self.user_id, node_id, rtt_ms,
                    probe.what_if_ms,
                )
            )
        return ProbeOutcome(
            node_id=node_id,
            d_prop_ms=rtt_ms,
            d_proc_ms=probe.what_if_ms,
            seq_num=probe.seq_num,
            attached_users=probe.attached_users,
            current_proc_ms=probe.current_proc_ms,
            stay_ms=probe.stay_ms,
            probed_at_ms=self._now(),
        )

    async def _join_io(self, best: ProbeOutcome) -> JoinResult:
        """``Join()`` the chosen candidate, echoing its probed seqNum."""
        attempted_at = self._now()
        try:
            await self._fault_gate(best.node_id, "join")
            connection = await self._connection(best.node_id)
            reply = await connection.request(
                "join",
                {"user_id": self.user_id, "seq_num": best.seq_num, "fps": 20.0},
            )
        except (OSError, protocol.ProtocolError, asyncio.TimeoutError, KeyError):
            return JoinResult(
                self._now(),
                best.node_id,
                accepted=False,
                attempted_at=attempted_at,
                node_alive=False,
            )
        accepted = bool(reply.get("accepted"))
        if not accepted:
            self.joins_rejected += 1  # state changed: repeat from discovery
        return JoinResult(
            self._now(),
            best.node_id,
            accepted=accepted,
            attempted_at=attempted_at,
            node_alive=True,
        )

    async def _failover_join_io(self, backup_id: str) -> FailoverResult:
        """``Unexpected_join()`` one backup over its standing connection."""
        start = time.monotonic()
        try:
            await self._fault_gate(backup_id, "unexpected_join")
            connection = await self._connection(backup_id)
            reply = await connection.request(
                "unexpected_join", {"user_id": self.user_id, "fps": 20.0}
            )
        except (OSError, protocol.ProtocolError, asyncio.TimeoutError, KeyError):
            return FailoverResult(
                self._now(), backup_id, accepted=False
            )
        return FailoverResult(
            self._now(),
            backup_id,
            accepted=bool(reply.get("accepted")),
            rtt_ms=(time.monotonic() - start) * 1000.0,
        )

    # ------------------------------------------------------------------
    # Selection round
    # ------------------------------------------------------------------
    async def select_and_join(self) -> str:
        """One full selection round (discovery -> probing -> join).

        Returns the chosen node id (the current edge when the machine
        decides staying put is best).

        Raises:
            RuntimeError: when no candidate accepts after retries.
        """
        for _ in range(4):
            self._round_failed = False
            await self._drive(RoundStarted(self._now()))
            if self.current_edge is not None and not self._round_failed:
                return self.current_edge
            await asyncio.sleep(0.2)
        raise RuntimeError(f"{self.user_id}: no candidate accepted the join")

    async def leave(self, node_id: str) -> None:
        try:
            await self._fault_gate(node_id, "leave")
            connection = await self._connection(node_id)
            await connection.request("leave", {"user_id": self.user_id})
        except (OSError, protocol.ProtocolError, asyncio.TimeoutError, KeyError):
            pass

    # ------------------------------------------------------------------
    async def offload_frame(self) -> Optional[float]:
        """Send one frame; returns end-to-end latency (ms) or None (lost).

        On failure the failure-monitor path runs: ``unexpected_join`` the
        first live backup over its standing connection.
        """
        if self.current_edge is None:
            raise RuntimeError("not attached to any edge node")
        edge_id = self.current_edge
        self._frame_counter += 1
        frame_id = self._frame_counter
        connection = await self._connection(edge_id)
        tracer = self.tracer
        created_ms = tracer.now()
        if tracer.enabled:
            tracer.emit(FrameStart(created_ms, self.user_id, edge_id, frame_id))
        start = time.monotonic()
        try:
            await self._fault_gate(edge_id, "frame")
            reply = await connection.request("frame", {"user_id": self.user_id})
        except (OSError, protocol.ProtocolError, asyncio.TimeoutError):
            tracer.emit(
                FrameDone(tracer.now(), self.user_id, edge_id, frame_id,
                          created_ms, None)
            )
            await self._failover()
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

    async def _failover(self) -> None:
        """The serving connection broke: walk the backup list.

        The machine walks ``unexpected_join`` over the adopted backups
        (the covered path) and falls back to an inline reactive
        re-discovery when every backup is dead (the uncovered path);
        if even that round fails, keep retrying via
        :meth:`select_and_join`.
        """
        failed_edge = self.current_edge
        self._forget(failed_edge or "")
        self.failovers += 1
        if failed_edge is None:
            return
        await self._drive(EdgeFailed(self._now(), failed_edge))
        if self.current_edge is None:
            await self.select_and_join()

    async def close(self) -> None:
        if self.current_edge is not None:
            await self.leave(self.current_edge)
            self.current_edge = None
        for connection in self.connections.values():
            await connection.close()
        self.connections.clear()
