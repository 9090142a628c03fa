"""Spin up a complete live cluster on localhost."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from repro.net.topology import EndpointSpec
from repro.nodes.hardware import HardwareProfile
from repro.obs.events import NodeRestart
from repro.obs.tracer import Tracer
from repro.runtime.client_runtime import LiveClient
from repro.runtime.edge_server import LiveEdgeServer
from repro.runtime.manager_server import ManagerServer
from repro.world import World, WorldNode, sampled_world


class LocalCluster:
    """Manager + edge fleet + clients, all on 127.0.0.1.

    Usage::

        cluster = LocalCluster(world)
        await cluster.start()
        try:
            for client in cluster.clients:
                await client.select_and_join()
                await client.offload_frame()
        finally:
            await cluster.stop()

    The cluster boots exactly the world's node ids at their points and
    one :class:`LiveClient` per world user. Loopback has no network
    model, so an endpoint that carries anything beyond a position (a
    tier, an ISP, bandwidth caps, ``access_extra_ms``) is refused with a
    ``ValueError`` at construction, before any socket opens. The
    world's ``manager_point`` is not modelled either: the manager is a
    loopback port.

    A sequence of hardware profiles in place of the world is turned into
    one by :func:`~repro.world.sampled_world` (``n_clients`` users,
    placed from ``seed``) — the form the perf ledger's live workload
    still uses; nothing else reads ``n_clients`` or ``seed``.

    Bring-up is the registration handshake, not a timer: every edge's
    :meth:`LiveEdgeServer.start` returns once the manager has answered
    its first heartbeat, so when :meth:`start` returns the registry
    holds every edge and the first ``select_and_join`` can find them.

    Below a ``time_scale`` of about 0.03 a frame's service sleep is
    shorter than the selector's 1 ms resolution: an idle loop stretches
    it, and ``proc_ms`` (wall time / ``time_scale``) inflates.
    """

    def __init__(
        self,
        world: Union[World, Sequence[HardwareProfile]],
        *,
        n_clients: int = 1,
        seed: int = 0,
        time_scale: float = 0.05,
        heartbeat_period_s: float = 0.2,
        top_n: int = 3,
        tracer: Optional[Tracer] = None,
        monitor_period_s: Optional[float] = None,
        attachment_lease_s: Optional[float] = None,
    ) -> None:
        if not isinstance(world, World):
            world = sampled_world(world, n_clients, seed)
        if not world.nodes:
            raise ValueError("need at least one edge node")
        for entity_id, spec in [
            *((node.node_id, node.spec) for node in world.nodes),
            *world.users,
        ]:
            if spec != EndpointSpec(spec.point):
                raise ValueError(
                    f"{entity_id!r}: a loopback cluster models positions only, "
                    f"not {spec}"
                )
        self.world = world
        self.tracer = tracer if tracer is not None else Tracer.disabled()
        self.manager = ManagerServer(tracer=self.tracer)
        self.edges: List[LiveEdgeServer] = []
        self.clients: List[LiveClient] = []
        self.time_scale = time_scale
        self.heartbeat_period_s = heartbeat_period_s
        self.top_n = top_n
        self.monitor_period_s = monitor_period_s
        self.attachment_lease_s = attachment_lease_s

    async def start(self) -> None:
        """Start the manager, then each edge — registered in the
        manager's registry by the time its ``start()`` returns — and
        build (unattached) clients."""
        await self.manager.start()
        for node in self.world.nodes:
            edge = self._build_edge(node)
            await edge.start()
            self.edges.append(edge)
        for user_id, spec in self.world.users:
            self.clients.append(
                LiveClient(
                    user_id,
                    spec.point,
                    self.manager.host,
                    self.manager.port,
                    top_n=self.top_n,
                    tracer=self.tracer,
                )
            )

    async def stop(self) -> None:
        for client in self.clients:
            await client.close()
        for edge in self.edges:
            await edge.stop()
        await self.manager.stop()

    def _build_edge(self, node: WorldNode) -> LiveEdgeServer:
        return LiveEdgeServer(
            node.node_id,
            node.profile,
            node.spec.point,
            manager_host=self.manager.host,
            manager_port=self.manager.port,
            heartbeat_period_s=self.heartbeat_period_s,
            time_scale=self.time_scale,
            dedicated=node.dedicated,
            tracer=self.tracer,
            monitor_period_s=self.monitor_period_s,
            attachment_lease_s=self.attachment_lease_s,
        )

    def edge_by_id(self, node_id: str) -> LiveEdgeServer:
        for edge in self.edges:
            if edge.node_id == node_id:
                return edge
        raise KeyError(f"unknown edge: {node_id!r}")

    async def kill_edge(self, node_id: str) -> None:
        """Hard-stop one edge (volunteer leaves without notification)."""
        edge = self.edge_by_id(node_id)
        await edge.stop()

    async def restart_edge(self, node_id: str) -> LiveEdgeServer:
        """Restart a killed edge under the *same* node id.

        A brand-new :class:`LiveEdgeServer` process on the same
        hardware/placement, listening on a fresh port: seqNum restarts
        at 0 and the what-if cache re-primes — no pre-crash state
        survives the identity. The returned edge has already sent its
        first heartbeat, so (unless that heartbeat failed) the manager
        hands out the new address from now on.

        The new incarnation inherits the old one's fault wiring
        (``faults`` / ``fault_clock``) before it starts, so that first
        heartbeat meets the injector too, and ``NodeRestart`` is traced
        before any event of the new incarnation.
        """
        index = next(
            (i for i, e in enumerate(self.edges) if e.node_id == node_id), None
        )
        if index is None:
            raise KeyError(f"unknown edge: {node_id!r}")
        old = self.edges[index]
        if not old._dead:
            raise ValueError(f"edge {node_id!r} is still running; kill it first")
        edge = self._build_edge(self.world.nodes[index])
        edge.faults, edge.fault_clock = old.faults, old.fault_clock
        self.edges[index] = edge
        self.tracer.emit(NodeRestart(self.tracer.now(), node_id))
        await edge.start()
        return edge

    async def stop_manager(self) -> None:
        """Take the Central Manager offline (outage injection).

        Edges keep heartbeating into the void with backoff; attached
        clients keep offloading frames — only discovery goes dark.
        """
        await self.manager.stop()

    async def restart_manager(self) -> None:
        """Bring the manager back on its original port, empty. Unlike
        :meth:`start` this does not wait for the edges: each re-registers
        with its next heartbeat, up to ``max_heartbeat_backoff_s`` away
        when the outage made it back off."""
        await self.manager.start()

    def manager_address(self) -> Dict[str, object]:
        return {"host": self.manager.host, "port": self.manager.port}

    def statuses(self) -> Optional[dict]:
        """Convenience snapshot for demos."""
        return {
            "manager": self.manager_address(),
            "edges": [e.node_id for e in self.edges],
            "clients": [c.user_id for c in self.clients],
        }
