"""Live bring-up is the registration handshake, not a timer.

A :class:`LiveEdgeServer` sends its first heartbeat inside ``start()``
and returns once the manager (a :class:`ManagerServer` or a
:class:`RouterServer`) has answered it; a first heartbeat that fails is
an ordinary ``HeartbeatMissed`` with backoff, and ``start()`` returns
anyway. So "the registry holds every edge when ``LocalCluster.start()``
returns" is checked right after it returns, with no wait in between.
The clusters here beat once an hour: each edge sends one heartbeat per
incarnation during a test, so it is that one the tests see.
"""

from __future__ import annotations

import asyncio
import socket

import pytest

from repro.controlplane.live_driver import ControlPlaneCluster
from repro.faults import FaultInjector, FaultPlan, MessageFault, NodeCrash, Window
from repro.faults.injector import MANAGER_ID
from repro.faults.scenarios import ChaosController
from repro.geo.point import GeoPoint
from repro.messages import DiscoveryQuery, to_wire
from repro.nodes.hardware import VOLUNTEER_PROFILES, profile_by_name
from repro.obs.events import FaultInjected, HeartbeatMissed, NodeFail, NodeRestart
from repro.obs.tracer import Tracer
from repro.runtime import LiveEdgeServer, LocalCluster, ManagerServer, protocol
from repro.world import World, sampled_world
from tests.test_runtime_protocol_edge import until

HOURLY = 3600.0
POINT = GeoPoint(44.98, -93.26)
EIGHT = (VOLUNTEER_PROFILES * 2)[:8]


def run(coro):
    return asyncio.run(coro)


def refused_port() -> int:
    """A loopback port nothing listens on (until a test binds it)."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


async def booted(cluster: LocalCluster) -> None:
    """``cluster.start()``, which must take well under a second: a
    bring-up that waited for the (hourly) heartbeat loop fails here
    instead of hanging."""
    await asyncio.wait_for(cluster.start(), timeout=1.0)


def test_cluster_start_returns_with_every_edge_registered():
    async def scenario():
        cluster = LocalCluster(
            sampled_world(VOLUNTEER_PROFILES[:4], n_clients=1), time_scale=0.01,
            heartbeat_period_s=HOURLY,
        )
        try:
            await booted(cluster)
            status = await protocol.request(
                cluster.manager.host, cluster.manager.port, "status"
            )
            chosen = await cluster.clients[0].select_and_join()
            return [e.node_id for e in cluster.edges], status, chosen
        finally:
            await cluster.stop()

    edges, status, chosen = run(scenario())
    assert len(edges) == 4
    assert status["nodes"] == sorted(edges)
    assert status["heartbeats_received"] == 4  # one each, all inside start()
    assert chosen in edges


def test_edges_start_together_and_keep_world_order():
    """The manager holds every heartbeat reply until all eight edges
    have sent one: edges started one at a time would wait on the first
    reply forever, and the 1 s bound in ``booted`` would fail. The world
    lists its nodes in reverse id order, so ``edges`` in world order is
    not the sorted order either."""

    async def scenario():
        world = sampled_world(EIGHT)
        world = World(tuple(reversed(world.nodes)), world.users)
        cluster = LocalCluster(world, time_scale=0.01, heartbeat_period_s=HOURLY)
        manager = cluster.manager
        answer = manager._dispatch
        everyone = asyncio.Event()

        async def held(frame):
            reply = await answer(frame)
            if manager.heartbeats_received == len(world.nodes):
                everyone.set()
            await everyone.wait()
            return reply

        manager._dispatch = held
        try:
            await booted(cluster)
            status = await protocol.request(manager.host, manager.port, "status")
            return world, [e.node_id for e in cluster.edges], status
        finally:
            await cluster.stop()

    world, edges, status = run(scenario())
    assert len(edges) == 8
    assert edges == [node.node_id for node in world.nodes] != sorted(edges)
    assert status["nodes"] == sorted(edges)
    assert status["heartbeats_received"] == 8


class Boom(Exception):
    pass


@pytest.mark.parametrize("failure", ["bind", "heartbeat"])
def test_an_edge_that_fails_to_start_is_still_stopped(failure):
    """One edge's ``start()`` raises — its port is taken, or its first
    heartbeat raises after it is listening. ``start()`` raises that
    error once the other seven have registered, and ``stop()`` then
    leaves no listener and no task behind."""

    async def scenario():
        cluster = LocalCluster(sampled_world(EIGHT), time_scale=0.01, heartbeat_period_s=HOURLY)
        build, built = cluster._build_edge, []
        taken = socket.socket()
        taken.bind(("127.0.0.1", 0))
        taken.listen()

        def build_edge(node):
            edge = build(node)
            if len(built) == 3:
                if failure == "bind":
                    edge.port = taken.getsockname()[1]
                else:
                    async def raising():
                        raise Boom(edge.node_id)

                    edge._heartbeat = raising
            built.append(edge)
            return edge

        cluster._build_edge = build_edge
        try:
            with pytest.raises(OSError if failure == "bind" else Boom):
                await booted(cluster)
            registered = sorted(cluster.manager._registry)
            in_cluster = list(cluster.edges)
        finally:
            await cluster.stop()
            taken.close()
        refused = 0
        for edge in built:
            try:
                await asyncio.open_connection("127.0.0.1", edge.port)
            except ConnectionRefusedError:
                refused += 1
        pending = asyncio.all_tasks() - {asyncio.current_task()}
        return built, in_cluster, registered, refused, pending

    built, in_cluster, registered, refused, pending = run(scenario())
    assert in_cluster == built
    assert registered == sorted(e.node_id for i, e in enumerate(built) if i != 3)
    assert refused == 8
    assert pending == set()
    assert all(edge._server is None for edge in built)


def test_edge_facing_a_refused_port_starts_anyway_and_registers_later():
    async def scenario():
        tracer = Tracer()
        port = refused_port()
        edge = LiveEdgeServer(
            "e1", profile_by_name("V1"), POINT,
            manager_host="127.0.0.1", manager_port=port,
            heartbeat_period_s=0.05, max_heartbeat_backoff_s=0.1,
            time_scale=0.01, tracer=tracer,
        )
        manager = ManagerServer(port=port)
        try:
            await asyncio.wait_for(edge.start(), timeout=1.0)
            failures = edge.heartbeat_failures
            missed = [e for e in tracer.events() if isinstance(e, HeartbeatMissed)]
            await manager.start()
            # registered, and the edge has read the reply (which resets
            # its failure count) — the manager records it before replying
            await until(
                lambda: "e1" in manager._registry and edge.heartbeat_failures == 0,
                "e1 registered and answered",
            )
            return failures, missed
        finally:
            await edge.stop()
            await manager.stop()

    failures, missed = run(scenario())
    assert failures == 1
    assert [(e.node_id, e.attempt) for e in missed] == [("e1", 1)]


def test_edge_behind_a_router_is_in_every_alive_replica_of_its_shard():
    async def scenario():
        cluster = ControlPlaneCluster(shards=2, replicas=3)
        await cluster.start()
        host, port = cluster.address
        edge = LiveEdgeServer(
            "e1", profile_by_name("V1"), POINT,
            manager_host=host, manager_port=port,
            heartbeat_period_s=HOURLY, time_scale=0.01,
        )
        try:
            assert cluster.router is not None
            shard = cluster.router.router.owner_of(edge.status())
            killed = await cluster.kill_primary(shard)
            await asyncio.wait_for(edge.start(), timeout=1.0)
            return shard, killed, {
                (s, r): "e1" in server._registry
                for s, servers in enumerate(cluster.managers)
                for r, server in enumerate(servers)
                if server is not None
            }
        finally:
            await edge.stop()
            await cluster.stop()

    shard, killed, holds = run(scenario())
    alive = {(shard, r) for r in range(3) if r != killed}
    assert {key for key, held in holds.items() if held} == alive


def test_restarted_edge_is_discovered_at_its_new_port_at_once():
    async def scenario():
        cluster = LocalCluster(
            sampled_world(VOLUNTEER_PROFILES[:3]), time_scale=0.01,
            heartbeat_period_s=HOURLY,
        )
        try:
            await booted(cluster)
            node_id = cluster.edges[0].node_id
            await cluster.kill_edge(node_id)
            edge = await cluster.restart_edge(node_id)
            query = DiscoveryQuery(
                user_id="u", lat=edge.point.lat, lon=edge.point.lon,
                top_n=len(cluster.edges),
            )
            reply = await protocol.request(
                cluster.manager.host, cluster.manager.port, "discover",
                {"query": to_wire(query)},
            )
            return node_id, [edge.host, edge.port], reply
        finally:
            await cluster.stop()

    node_id, address, reply = run(scenario())
    assert node_id in reply["candidates"]["payload"]["node_ids"]
    assert reply["addresses"][node_id] == address


def test_restarted_edge_meets_the_injector_on_its_first_heartbeat():
    """The new incarnation's first heartbeat is sent inside ``start()``:
    it must already carry its predecessor's fault wiring (a drop rule
    covering the restart instant drops it), and ``NodeRestart`` must be
    traced before anything the new incarnation does."""

    async def scenario():
        tracer = Tracer()
        cluster = LocalCluster(
            sampled_world(VOLUNTEER_PROFILES[:2]), time_scale=0.01,
            heartbeat_period_s=HOURLY, tracer=tracer,
        )
        try:
            await booted(cluster)
            node_id = cluster.edges[0].node_id
            plan = FaultPlan(
                message_faults=(
                    MessageFault(
                        "hb-drop", window=Window(100.0), src=node_id,
                        dst=MANAGER_ID, ops=("heartbeat",), drop_p=1.0,
                    ),
                ),
                crashes=(NodeCrash("crash", node_id, at_ms=50.0, restart_at_ms=150.0),),
            )
            injector = FaultInjector(plan, seed=0, tracer=tracer)
            controller = ChaosController(cluster, injector, plan_ms_per_s=1_000.0)
            controller.start()
            await controller.wait()
            return node_id, cluster.edges[0].heartbeat_failures, list(tracer.events())
        finally:
            await cluster.stop()

    node_id, failures, events = run(scenario())
    assert failures == 1
    mine = [e for e in events if getattr(e, "node_id", None) == node_id]
    kinds = [type(e) for e in mine]
    # nothing of the new incarnation's comes before its NodeRestart
    assert kinds[kinds.index(NodeFail) + 1] is NodeRestart
    (missed,) = [e for e in mine if isinstance(e, HeartbeatMissed)]
    (drop,) = [e for e in events if isinstance(e, FaultInjected) and e.kind == "drop"]
    assert drop.src == node_id
    assert (
        events.index(mine[kinds.index(NodeRestart)])
        < events.index(drop)
        < events.index(missed)
    )
