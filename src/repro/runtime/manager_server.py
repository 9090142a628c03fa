"""The live Central Manager — asyncio transport over the protocol core.

The machine (:class:`repro.protocol.global_select.GlobalSelectionMachine`)
and its effect interpreter (:class:`repro.protocol.driver.ManagerDriver`)
are the simulated :class:`repro.core.manager.CentralManager`'s too; this
module owns the TCP surface and, through the driver's hooks, the address
book — live clients need ``(host, port)`` pairs, which the sim does not.

Expiry stamps on this backend are ``time.monotonic()`` seconds (the sim
uses virtual milliseconds); the machine never interprets stamp units, it
only compares them against ``heartbeat_timeout``.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Dict, Iterable, Optional, Tuple

from repro.controlplane.replication import ReplicaSet
from repro.messages import Address, CandidateList, DiscoveryQuery, NodeStatus
from repro.messages import from_wire, read_field, to_wire
from repro.obs.events import PopulationChanged
from repro.obs.tracer import Tracer
from repro.policy.global_policy import GlobalSelectionPolicy
from repro.protocol.driver import ManagerDriver
from repro.protocol.events import DiscoveryRequested, HeartbeatReceived, PartialDiscoveryRequested
from repro.protocol.global_select import GlobalSelectionMachine, RegistrySnapshot
from repro.runtime import protocol


def heartbeat_from_wire(payload: Dict[str, Any]) -> Tuple[NodeStatus, Address]:
    """A peer's heartbeat: its status, and the serving address no message
    declares. ValueError when the wire schema refuses either."""
    status = from_wire(payload.get("status"), NodeStatus)
    return status, (read_field(payload, "host", str), read_field(payload, "port", int))


def address_book(addresses: Dict[str, Address], node_ids: Iterable[str]) -> Dict[str, Address]:
    """The serving addresses of the known ones among ``node_ids``."""
    return {n: addresses[n] for n in node_ids if n in addresses}


class ManagerServer(ManagerDriver[ReplicaSet]):
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
        super().__init__([], tracer=tracer if tracer is not None else Tracer.disabled())
        self.host = host
        self.port = port
        #: The sans-IO Central Manager core this driver executes.
        self._machine = GlobalSelectionMachine(
            policy or GlobalSelectionPolicy(),
            heartbeat_timeout=heartbeat_timeout_s,
        )
        self._addresses: Dict[str, Address] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._open_writers = protocol.OpenConnections()
        self.connections_accepted = 0

    # ------------------------------------------------------------------
    # Protocol-core state, exposed on the driver for tests/operators.
    # ------------------------------------------------------------------
    @property
    def policy(self) -> GlobalSelectionPolicy:
        return self._machine.policy

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

    # Driver hooks. One PopulationChanged per batch of arrivals and
    # expiries: what an operator watching the registry size would see.
    def _node_expired(self, node_id: str) -> None:
        self._addresses.pop(node_id, None)

    def _population_changed(self) -> None:
        self.tracer.emit(PopulationChanged(self.tracer.now(), len(self._machine.registry)))

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
            self._step(self._machine, HeartbeatReceived(stamp=time.monotonic(), status=status))
            self.heartbeats_received += 1
            self._addresses[status.node_id] = address
            return {"ok": True}
        if op == "discover":
            query = from_wire(payload.get("query"), DiscoveryQuery)
            self.queries_served += 1
            reply = self._step(
                self._machine,
                DiscoveryRequested(now=self.tracer.now(), stamp=time.monotonic(), query=query),
            )
            candidates = CandidateList(
                user_id=query.user_id,
                node_ids=reply.node_ids,
                widened=reply.widened,
            )
            return {
                "ok": True,
                "candidates": to_wire(candidates),
                "addresses": address_book(self._addresses, reply.node_ids),
            }
        if op == "discover_partial":
            query = from_wire(payload.get("query"), DiscoveryQuery)
            radius_km = read_field(payload, "radius_km", float)
            self.queries_served += 1
            reply = self._step(
                self._machine,
                PartialDiscoveryRequested(
                    now=self.tracer.now(), stamp=time.monotonic(), query=query, radius_km=radius_km
                ),
            )
            return {
                "ok": True,
                "count": reply.count,
                "statuses": [to_wire(s) for s in reply.statuses],
                "addresses": address_book(self._addresses, (s.node_id for s in reply.statuses)),
            }
        if op == "snapshot":
            snapshot = self._machine.snapshot_state()
            return {
                "ok": True,
                "statuses": [to_wire(s) for s in snapshot.statuses],
                "stamps": snapshot.stamps,
                "addresses": dict(self._addresses),
            }
        if op == "restore":
            snapshot = RegistrySnapshot(
                statuses=read_field(payload, "statuses", Tuple[NodeStatus, ...]),
                stamps=read_field(payload, "stamps", Dict[str, float]),
            )
            addresses = read_field(payload, "addresses", Dict[str, Address], {})
            self._machine.restore_state(snapshot)
            self._addresses = addresses
            return {"ok": True, "entries": len(snapshot.statuses)}
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
