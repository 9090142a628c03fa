"""Sharded Central Manager — live (asyncio) transport over the control plane.

- :class:`RouterServer` — a TCP front speaking the *manager* wire
  protocol (``heartbeat`` / ``discover`` / ``status``), so an unmodified
  :class:`~repro.runtime.client_runtime.LiveClient` or
  :class:`~repro.runtime.edge_server.LiveEdgeServer` pointed at it
  cannot tell it from a single :class:`ManagerServer`. Behind the front
  it runs the same sans-IO :class:`~repro.controlplane.router.ShardRouter`
  as the sim manager: heartbeats forward to every alive replica of the
  owning shard, discovery fans ``discover_partial`` phases out to the
  covering shards' primaries and merges the global TopN.
- :class:`ControlPlaneCluster` — a loopback harness that boots
  ``shards x replicas`` real :class:`ManagerServer` processes plus one
  RouterServer, with kill/restart primitives for the chaos tests.

Replica membership, promotion and the rejoin handoff are the shared
:class:`~repro.protocol.driver.ManagerDriver`'s; the router keeps its
pooled replica links and the fan-out. It has no heartbeat channel to
the managers: an RPC that fails reports its replica unreachable, and
since that failure has already paid for detection the driver promotes
a standby at once (reason ``unreachable``) and the fetch retries on it
within the same client request. A shard with no alive replica makes
the router *hang up without replying* — a discovery's client errors
into ``DiscoveryFailed`` and the degraded fallback, an edge's heartbeat
fails and backs off — never an empty answer or a false ``ok``.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.controlplane.errors import ControlPlaneUnavailable
from repro.controlplane.replication import ReplicaSet
from repro.controlplane.router import PartialSelection, ShardRouter, emit_routing
from repro.controlplane.sharding import DEFAULT_SHARD_PRECISION, ShardMap
from repro.messages import Address, CandidateList, DiscoveryQuery, NodeStatus, from_wire, read_field, to_wire
from repro.obs.tracer import Tracer
from repro.policy.global_policy import GlobalSelectionPolicy
from repro.protocol.driver import ManagerDriver
from repro.runtime import protocol
from repro.runtime.manager_server import ManagerServer, address_book, heartbeat_from_wire

__all__ = ["RouterServer", "ControlPlaneCluster"]


class RouterServer(ManagerDriver[ReplicaSet]):
    """The control plane's client-facing front: route, fan out, merge."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        shard_map: ShardMap,
        replica_addresses: Sequence[Sequence[Address]],
        policy: Optional[GlobalSelectionPolicy] = None,
        tracer: Optional[Tracer] = None,
        request_timeout_s: float = 1.0,
    ) -> None:
        if len(replica_addresses) != shard_map.count:
            raise ValueError(
                f"need one replica list per shard: got {len(replica_addresses)} "
                f"for {shard_map.count} shards"
            )
        self._replicas: List[List[Address]] = [list(a) for a in replica_addresses]
        super().__init__(
            [ReplicaSet(len(addresses)) for addresses in self._replicas],
            tracer=tracer if tracer is not None else Tracer.disabled(),
        )
        self.host = host
        self.port = port
        self.shard_map = shard_map
        self.request_timeout_s = request_timeout_s
        self.router = ShardRouter(shard_map, policy or GlobalSelectionPolicy())
        #: node id -> serving address, refreshed from heartbeats.
        self._addresses: Dict[str, Address] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._open_writers = protocol.OpenConnections()
        #: Standing router->replica links: a routed request pays the
        #: client's handshake only.
        self._links = protocol.ConnectionPool()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._open_writers.stopped = False
        self._server = await asyncio.start_server(
            lambda r, w: protocol.serve_connection(r, w, self._dispatch, self._open_writers),
            self.host,
            self.port,
            limit=protocol.MAX_FRAME_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        await protocol.stop_serving(self._server, self._open_writers)
        self._server = None
        await self._links.close()

    def _replica_changed(self, shard: int, replica: int) -> None:
        """A replica that went down, or came back, gets a fresh link: a
        socket to the process that died on this port would only mark it
        down again."""
        self._links.discard(*self._replicas[shard][replica])

    async def _rpc(
        self, shard: int, replica: int, op: str, payload: Dict[str, Any]
    ) -> Optional[Dict[str, Any]]:
        """One exchange with a replica, over its standing link. A failed
        exchange is the failure detector: the replica is reported
        unreachable, and the answer is None."""
        try:
            return await protocol.request(
                *self._replicas[shard][replica], op, payload,
                timeout=self.request_timeout_s, pool=self._links,
            )
        except (OSError, protocol.ProtocolError, asyncio.TimeoutError):
            self.replica_unreachable(shard, replica)
            return None

    async def _fetch_partial(
        self, query: DiscoveryQuery, shard: int, radius_km: float
    ) -> PartialSelection:
        """One ``discover_partial`` phase against ``shard``'s primary.

        A dead primary is detected by the failed RPC itself: the replica
        is reported unreachable, the driver promotes a standby, and the
        fetch retries on the new primary — all within the caller's
        request.

        Raises:
            ControlPlaneUnavailable: every replica of the shard is down.
        """
        while True:
            replica = self.shards[shard].serving_index()
            if replica is None:
                raise ControlPlaneUnavailable(shard)
            reply = await self._rpc(
                shard, replica, "discover_partial", {"query": to_wire(query), "radius_km": radius_km}
            )
            if reply is None:
                continue
            statuses = read_field(reply, "statuses", Tuple[NodeStatus, ...])
            selection = PartialSelection(shard, read_field(reply, "count", int), statuses)
            self._addresses.update(read_field(reply, "addresses", Dict[str, Address], {}))
            return selection

    # ------------------------------------------------------------------
    # Wire surface (manager-compatible)
    # ------------------------------------------------------------------
    async def _dispatch(self, frame: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        op = frame["op"]
        payload = frame["payload"]
        try:
            if op == "heartbeat":
                return await self._on_heartbeat(payload)
            if op == "discover":
                return await self._on_discover(payload)
        except ValueError as exc:
            # A status with no owner or a query with no cover (or not a
            # message at all): refused as a manager refuses it, before
            # any shard was asked.
            return {"ok": False, "error": str(exc)}
        if op == "status":
            return {
                "ok": True,
                "nodes": sorted(self._addresses),
                "queries_served": self.queries_served,
                "heartbeats_received": self.heartbeats_received,
                "heartbeats_dropped": self.heartbeats_dropped,
                "promotions": self.promotions,
                "primaries": [m.primary for m in self.shards],
                "down": [
                    [r for r in range(m.replicas) if m.is_down(r)]
                    for m in self.shards
                ],
            }
        return {"ok": False, "error": f"unknown op: {op!r}"}

    async def _on_heartbeat(self, payload: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        status, node_address = heartbeat_from_wire(payload)
        shard = self.router.owner_of(status)
        delivered = 0
        for replica in range(self.shards[shard].replicas):
            if self.shards[shard].is_down(replica):
                continue
            reply = await self._rpc(shard, replica, "heartbeat", payload)
            if reply is None:
                continue
            if not reply.get("ok"):
                # The owner refused the status (its index wants a finer
                # geohash than the shard map does); so would its
                # standbys. The node stays unknown here too.
                return reply
            delivered += 1
        if not delivered:
            # No replica stored it: hang up, as for an unavailable
            # discovery, so the edge's heartbeat fails and backs off.
            self.heartbeats_dropped += 1
            return None
        self.heartbeats_received += 1
        self._addresses[status.node_id] = node_address
        return {"ok": True, "delivered": delivered}

    async def _on_discover(self, payload: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        query = from_wire(payload.get("query"), DiscoveryQuery)
        self.queries_served += 1
        geo = self.router.policy.geo_filter
        try:
            local = [
                await self._fetch_partial(query, shard, geo.radius_km)
                for shard in self.router.plan(query, geo.radius_km)
            ]
            wide: Optional[List[PartialSelection]] = None
            if self.router.needs_widening(query, local):
                wide = [
                    await self._fetch_partial(query, shard, geo.wide_radius_km)
                    for shard in self.router.plan(query, geo.wide_radius_km)
                ]
        except ControlPlaneUnavailable:
            # Hang up instead of answering: the client's request errors
            # and its machine takes the DiscoveryFailed / degraded-
            # fallback path.
            return None
        routed = self.router.merge(query, local, wide)
        if self.tracer.enabled:
            emit_routing(self.tracer, self.tracer.now(), query.user_id, routed)
        candidates = CandidateList(
            user_id=query.user_id,
            node_ids=routed.node_ids,
            widened=routed.widened,
        )
        return {
            "ok": True,
            "candidates": to_wire(candidates),
            "addresses": address_book(self._addresses, routed.node_ids),
        }


class ControlPlaneCluster:
    """``shards x replicas`` real managers behind one router, loopback.

    :meth:`kill_primary` stops a shard's serving :class:`ManagerServer`
    outright (the router finds out by a failed RPC); :meth:`restart_replica`
    brings it back on its old port, re-seeded as the driver says.
    """

    def __init__(
        self,
        *,
        shards: int = 2,
        replicas: int = 2,
        policy: Optional[GlobalSelectionPolicy] = None,
        tracer: Optional[Tracer] = None,
        heartbeat_timeout_s: float = 3.0,
        request_timeout_s: float = 1.0,
        shard_precision: int = DEFAULT_SHARD_PRECISION,
    ) -> None:
        if shards < 1 or replicas < 1:
            raise ValueError("shards and replicas must both be >= 1")
        self.tracer = tracer if tracer is not None else Tracer.disabled()
        self.policy = policy
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.request_timeout_s = request_timeout_s
        self.shard_map = ShardMap(count=shards, precision=shard_precision)
        self.managers: List[List[Optional[ManagerServer]]] = [
            [None] * replicas for _ in range(shards)
        ]
        self._ports: List[List[int]] = [[0] * replicas for _ in range(shards)]
        self.router: Optional[RouterServer] = None

    @property
    def address(self) -> Address:
        """Where clients and edges should point their "manager"."""
        assert self.router is not None
        return (self.router.host, self.router.port)

    async def _start_manager(self, shard: int, replica: int) -> ManagerServer:
        """Boot one replica — on its old port, if it had one."""
        server = ManagerServer(
            port=self._ports[shard][replica],
            policy=self.policy,
            heartbeat_timeout_s=self.heartbeat_timeout_s,
            tracer=Tracer.disabled(),
        )
        await server.start()
        self.managers[shard][replica] = server
        self._ports[shard][replica] = server.port
        return server

    async def start(self) -> None:
        for shard in range(self.shard_map.count):
            for replica in range(len(self.managers[shard])):
                await self._start_manager(shard, replica)
        self.router = RouterServer(
            shard_map=self.shard_map,
            replica_addresses=[
                [("127.0.0.1", port) for port in ports] for ports in self._ports
            ],
            policy=self.policy,
            tracer=self.tracer,
            request_timeout_s=self.request_timeout_s,
        )
        await self.router.start()

    async def stop(self) -> None:
        if self.router is not None:
            await self.router.stop()
            self.router = None
        for shard_servers in self.managers:
            for replica, server in enumerate(shard_servers):
                if server is not None:
                    await server.stop()
                    shard_servers[replica] = None

    # ------------------------------------------------------------------
    # Chaos primitives
    # ------------------------------------------------------------------
    async def kill_primary(self, shard: int) -> int:
        """Stop the shard's serving manager; returns the replica index."""
        assert self.router is not None
        replica = self.router.shards[shard].serving_index()
        if replica is None:
            raise RuntimeError(f"shard {shard} has no serving primary to kill")
        server = self.managers[shard][replica]
        assert server is not None
        await server.stop()
        self.managers[shard][replica] = None
        return replica

    async def restart_replica(self, shard: int, replica: int) -> None:
        """Restart a killed replica on its old port. The process is
        empty: if another replica serves, it is restored from that
        primary's snapshot (deduplicated at the source, so no tombstone
        or stale incarnation travels) and rejoins as a standby."""
        assert self.router is not None
        if self.managers[shard][replica] is not None:
            raise RuntimeError(f"shard {shard} replica {replica} is running")
        server = await self._start_manager(shard, replica)
        source = self.router.rejoin_source(shard, replica)
        entries = 0
        if source is not None:
            snapshot = await protocol.request(
                "127.0.0.1", self._ports[shard][source], "snapshot", {},
                timeout=self.request_timeout_s,
            )
            restored = await protocol.request(
                "127.0.0.1", server.port, "restore", snapshot, timeout=self.request_timeout_s
            )
            entries = int(restored["entries"])
        self.router.replica_rejoined(shard, replica, source, entries)
