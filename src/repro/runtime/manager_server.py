"""The live Central Manager — asyncio driver over the protocol core.

Registry, expiry, geo-filter and TopN ranking all live in
:class:`repro.protocol.global_select.GlobalSelectionMachine` (shared
with the simulated :class:`repro.core.manager.CentralManager`); this
module only owns the TCP surface and the address book — live clients
need ``(host, port)`` pairs for the candidates, which the sim does not.

Expiry stamps on this backend are ``time.monotonic()`` seconds (the sim
uses virtual milliseconds); the machine never interprets stamp units, it
only compares them against ``heartbeat_timeout``.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Dict, List, Optional, Tuple, Type, TypeVar

from repro.geo.point import GeoPoint
from repro.messages import CandidateList, DiscoveryQuery, NodeStatus, from_wire, to_wire
from repro.obs.events import PopulationChanged
from repro.obs.tracer import Tracer
from repro.policy.global_policy import GlobalSelectionPolicy
from repro.protocol.effects import (
    Effect,
    NodeExpired,
    NodeOnline,
    ReplyCandidates,
    ReplyPartialCandidates,
)
from repro.protocol.events import (
    DiscoveryRequested,
    HeartbeatReceived,
    PartialDiscoveryRequested,
    PruneTick,
)
from repro.protocol.global_select import GlobalSelectionMachine, RegistrySnapshot
from repro.runtime import protocol

M = TypeVar("M")


def _decoded(payload: Dict[str, Any], key: str, expected: Type[M]) -> M:
    try:
        message = from_wire(payload[key])
    except (KeyError, TypeError) as exc:
        # No such entry in the request, or fields the message type does
        # not have (or lacks): ``cls(**fields)`` says so with TypeError.
        raise ValueError(f"malformed {key}: {exc!r}") from None
    if not isinstance(message, expected):
        raise ValueError(
            f"expected a {expected.__name__}, got {type(message).__name__}"
        )
    return message


def _on_globe(lat: Any, lon: Any) -> None:
    try:
        GeoPoint(lat, lon)
    except TypeError:
        raise ValueError(f"coordinates are not numbers: {lat!r}, {lon!r}") from None


def heartbeat_from_wire(payload: Dict[str, Any]) -> Tuple[NodeStatus, Tuple[Any, Any]]:
    """A peer's heartbeat: its status and the address it serves on.

    Raises:
        ValueError: malformed, some other message type, a geohash that
            is not a string, or coordinates off the globe (NaN and
            non-numbers included; a non-number the index would accept
            now and every later query trip over).
    """
    status = _decoded(payload, "status", NodeStatus)
    if not isinstance(status.geohash, str):
        raise ValueError(f"geohash is not a string: {status.geohash!r}")
    _on_globe(status.lat, status.lon)
    try:
        return status, (payload["host"], payload["port"])
    except KeyError as exc:
        raise ValueError(f"heartbeat without {exc}") from None


def query_from_wire(payload: Dict[str, Any]) -> DiscoveryQuery:
    """A peer's discovery query, refused while nothing has been touched.

    Raises:
        ValueError: malformed, some other message type, coordinates
            off the globe (NaN and non-numbers included), a ``top_n``
            that is not an integer of at least 1, or an ``exclude`` that
            is not a list of node ids — which selection could only trip
            over (or answer with an empty list) after the registry has
            been pruned for it.
    """
    query = _decoded(payload, "query", DiscoveryQuery)
    _on_globe(query.lat, query.lon)
    top_n = query.top_n
    if not isinstance(top_n, int) or isinstance(top_n, bool) or top_n < 1:
        raise ValueError(f"top_n is not an integer >= 1: {top_n!r}")
    exclude = query.exclude
    if not isinstance(exclude, tuple) or not all(isinstance(n, str) for n in exclude):
        raise ValueError(f"exclude is not a list of node ids: {exclude!r}")
    return query


class ManagerServer:
    """Asyncio TCP server implementing the Central Manager role.

    Operations:
        - ``heartbeat`` — payload: wire-encoded :class:`NodeStatus` plus
          the node's serving address; refreshes the registry.
        - ``discover`` — payload: wire-encoded :class:`DiscoveryQuery`;
          replies with a :class:`CandidateList` and an address book for
          the candidates.
        - ``discover_partial`` — one fixed-radius phase of a routed
          discovery (the sharded control plane's RouterServer owns the
          widening decision globally; this shard just answers its
          slice): replies with the exact in-radius count plus the
          per-shard TopN statuses.
        - ``snapshot`` / ``restore`` — serialize / install the
          deduplicated registry snapshot (replication and standby
          re-seeding; stamps are host-monotonic seconds, so snapshots
          only transfer between processes sharing a clock — the
          loopback cluster's case).
        - ``status`` — introspection for tests/operators.

    A status or query the manager cannot use — malformed, a geohash the
    index cannot key, coordinates off the globe — is answered with
    ``{"ok": false, "error": ...}`` and changes nothing; the connection
    stays up.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        policy: Optional[GlobalSelectionPolicy] = None,
        heartbeat_timeout_s: float = 3.0,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.tracer = tracer if tracer is not None else Tracer.disabled()
        #: The sans-IO Central Manager core this driver executes.
        self._machine = GlobalSelectionMachine(
            policy or GlobalSelectionPolicy(),
            heartbeat_timeout=heartbeat_timeout_s,
        )
        self._addresses: Dict[str, tuple] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._open_writers = protocol.OpenConnections()
        self.queries_served = 0
        self.heartbeats_received = 0
        self.connections_accepted = 0

    # ------------------------------------------------------------------
    # Protocol-core state, exposed on the driver for tests/operators.
    # ------------------------------------------------------------------
    @property
    def policy(self) -> GlobalSelectionPolicy:
        return self._machine.policy

    @policy.setter
    def policy(self, policy: GlobalSelectionPolicy) -> None:
        self._machine.policy = policy

    @property
    def _registry(self) -> Dict[str, NodeStatus]:
        return self._machine.registry

    async def start(self) -> None:
        """Bind and start serving; resolves the actual port when 0."""
        self._open_writers.stopped = False
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=protocol.MAX_FRAME_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Hard stop: open connections are severed, not drained — a
        killed manager must not answer on a peer's standing link."""
        await protocol.stop_serving(self._server, self._open_writers)
        self._server = None

    # ------------------------------------------------------------------
    def _run_effects(self, effects: List[Effect]) -> Optional[Effect]:
        """Execute registry effects in order; return the reply (if any).

        Node arrivals and expiries both surface as a single
        :class:`PopulationChanged` trace per batch (matching what an
        operator watching the registry size would observe).
        """
        reply: Optional[Effect] = None
        population_changed = False
        for effect in effects:
            if isinstance(effect, NodeOnline):
                if effect.new:
                    population_changed = True
            elif isinstance(effect, NodeExpired):
                self._addresses.pop(effect.node_id, None)
                population_changed = True
            elif isinstance(effect, (ReplyCandidates, ReplyPartialCandidates)):
                reply = effect
            else:  # pragma: no cover - forward-compatibility guard
                raise TypeError(f"unhandled effect {type(effect).__name__}")
        if population_changed:
            self.tracer.emit(
                PopulationChanged(self.tracer.now(), len(self._machine.registry))
            )
        return reply

    def _alive_statuses(self) -> List[NodeStatus]:
        """Prune stale entries, then snapshot the registry."""
        self._run_effects(self._machine.handle(PruneTick(time.monotonic())))
        return list(self._machine.registry.values())

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections_accepted += 1
        await protocol.serve_connection(
            reader, writer, self._dispatch, self._open_writers
        )

    async def _dispatch(self, frame: dict) -> dict:
        try:
            return self._answer(frame)
        except ValueError as exc:
            return {"ok": False, "error": str(exc)}

    def _answer(self, frame: dict) -> dict:
        op = frame["op"]
        payload = frame["payload"]
        if op == "heartbeat":
            status, address = heartbeat_from_wire(payload)
            self._run_effects(
                self._machine.handle(
                    HeartbeatReceived(stamp=time.monotonic(), status=status)
                )
            )
            self.heartbeats_received += 1
            self._addresses[status.node_id] = address
            return {"ok": True}
        if op == "discover":
            query = query_from_wire(payload)
            self.queries_served += 1
            reply = self._run_effects(
                self._machine.handle(
                    DiscoveryRequested(
                        now=self.tracer.now(), stamp=time.monotonic(), query=query
                    )
                )
            )
            assert isinstance(reply, ReplyCandidates)
            candidates = CandidateList(
                user_id=query.user_id,
                node_ids=reply.node_ids,
                widened=reply.widened,
            )
            return {
                "ok": True,
                "candidates": to_wire(candidates),
                "addresses": {
                    node_id: list(self._addresses[node_id])
                    for node_id in reply.node_ids
                    if node_id in self._addresses
                },
            }
        if op == "discover_partial":
            query = query_from_wire(payload)
            self.queries_served += 1
            reply = self._run_effects(
                self._machine.handle(
                    PartialDiscoveryRequested(
                        now=self.tracer.now(),
                        stamp=time.monotonic(),
                        query=query,
                        radius_km=float(payload["radius_km"]),
                    )
                )
            )
            assert isinstance(reply, ReplyPartialCandidates)
            return {
                "ok": True,
                "count": reply.count,
                "statuses": [to_wire(s) for s in reply.statuses],
                "addresses": {
                    s.node_id: list(self._addresses[s.node_id])
                    for s in reply.statuses
                    if s.node_id in self._addresses
                },
            }
        if op == "snapshot":
            snapshot = self._machine.snapshot_state()
            return {
                "ok": True,
                "statuses": [to_wire(s) for s in snapshot.statuses],
                "stamps": snapshot.stamps,
                "wrr": snapshot.wrr_current,
                "addresses": {
                    node_id: list(addr)
                    for node_id, addr in self._addresses.items()
                },
            }
        if op == "restore":
            statuses = tuple(from_wire(s) for s in payload["statuses"])
            self._machine.restore_state(
                RegistrySnapshot(
                    statuses=statuses,
                    stamps={k: float(v) for k, v in payload["stamps"].items()},
                    wrr_current={k: float(v) for k, v in payload["wrr"].items()},
                )
            )
            self._addresses = {
                node_id: tuple(addr)
                for node_id, addr in payload.get("addresses", {}).items()
            }
            return {"ok": True, "entries": len(statuses)}
        if op == "status":
            return {
                "ok": True,
                "nodes": sorted(self._machine.registry),
                "queries_served": self.queries_served,
                "heartbeats_received": self.heartbeats_received,
                "connections_accepted": self.connections_accepted,
                "cuts_remembered": self._machine.spatial_index.cuts_remembered,
                "cuts_computed": self._machine.spatial_index.cuts_computed,
            }
        return {"ok": False, "error": f"unknown op: {op!r}"}
