"""Live-runtime tests for the sharded control plane.

A :class:`RouterServer` speaks the single manager's wire protocol, so
these tests drive it with plain ``protocol.request`` calls exactly as a
``LiveClient``/``LiveEdgeServer`` would: heartbeat a spread of nodes,
discover, kill a shard's primary :class:`ManagerServer` mid-flight, and
check that the standby answer is bit-identical and the failover events
(``manager_promote``, ``registry_handoff``) fire.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.controlplane.live_driver import ControlPlaneCluster
from repro.geo.geohash import encode
from repro.geo.point import GeoPoint
from repro.messages import DiscoveryQuery, NodeStatus, to_wire
from repro.obs.tracer import Tracer
from repro.runtime import ManagerServer, protocol
from tests.test_runtime_protocol_edge import hung_up

CENTER = GeoPoint(44.97, -93.25)
#: On the prime meridian, where a two-shard map's ranges meet: the
#: nodes around it are owned by both shards, and a discovery here
#: covers both.
GREENWICH = GeoPoint(51.48, 0.0)
NODE_OFFSETS = [(-24.0, -18.0), (-10.0, 6.0), (0.0, 0.0), (12.0, -8.0), (24.0, 16.0)]


def run(coro):
    return asyncio.run(coro)


def node_status(index: int, center: GeoPoint = CENTER) -> NodeStatus:
    point = center.offset_km(*NODE_OFFSETS[index])
    return NodeStatus(
        node_id=f"edge-{index}",
        lat=point.lat,
        lon=point.lon,
        geohash=encode(point.lat, point.lon, precision=9),
        cores=4,
        capacity_fps=30.0,
        attached_users=0,
        utilization=0.1 * index,
    )


def beat(index: int, center: GeoPoint = CENTER) -> dict:
    """Node ``index``'s heartbeat payload."""
    return {
        "status": to_wire(node_status(index, center)),
        "host": "127.0.0.1",
        "port": 9000 + index,
    }


async def heartbeat_all(host: str, port: int, center: GeoPoint = CENTER) -> None:
    for index in range(len(NODE_OFFSETS)):
        await protocol.request(host, port, "heartbeat", beat(index, center))


async def discover(host: str, port: int, user_id: str = "u", point: GeoPoint = CENTER):
    query = DiscoveryQuery(user_id=user_id, lat=point.lat, lon=point.lon, top_n=3)
    return await protocol.request(host, port, "discover", {"query": to_wire(query)})


def accepted(cluster: ControlPlaneCluster) -> int:
    """TCP connections the shard managers have accepted so far."""
    return sum(m.connections_accepted for ms in cluster.managers for m in ms if m)


def test_router_answers_like_a_single_manager():
    """Wire-level golden parity: same heartbeats, same discover reply."""

    async def scenario():
        single = ManagerServer(tracer=Tracer.disabled())
        await single.start()
        cluster = ControlPlaneCluster(shards=2, replicas=2)
        await cluster.start()
        try:
            await heartbeat_all(single.host, single.port)
            await heartbeat_all(*cluster.address)
            want = await discover(single.host, single.port)
            got = await discover(*cluster.address)
            return want, got
        finally:
            await cluster.stop()
            await single.stop()

    want, got = run(scenario())
    assert want["ok"] and got["ok"]
    assert got["candidates"]["payload"]["node_ids"] == want["candidates"]["payload"]["node_ids"]
    assert got["candidates"]["payload"]["widened"] == want["candidates"]["payload"]["widened"]
    assert got["addresses"] == want["addresses"]


def test_router_accepts_frames_up_to_the_protocol_cap(caplog):
    """The router's readers take ``MAX_FRAME_BYTES`` like every other
    stream: 70 000 bytes pass, a line over the cap is a quiet hang-up."""

    async def scenario():
        cluster = ControlPlaneCluster(shards=2, replicas=1)
        await cluster.start()
        try:
            ok = await protocol.request(*cluster.address, "status", {"pad": "x" * 70_000})
            with pytest.raises((protocol.ProtocolError, OSError)):
                await protocol.request(
                    *cluster.address, "status", {"pad": "x" * (protocol.MAX_FRAME_BYTES + 10)}
                )
            return ok
        finally:
            await cluster.stop()

    with caplog.at_level("ERROR", logger="asyncio"):
        assert run(scenario())["ok"]
    assert caplog.records == []


def test_concurrent_discovers_each_get_their_own_answer():
    """Handlers of concurrent clients share the router's standing
    links; every reply must still be the one to its own query."""

    async def scenario():
        single = ManagerServer(tracer=Tracer.disabled())
        await single.start()
        cluster = ControlPlaneCluster(shards=2, replicas=2)
        await cluster.start()
        try:
            await heartbeat_all(single.host, single.port)
            await heartbeat_all(*cluster.address)
            points = [
                CENTER.offset_km(dx * (k + 1) / 2, dy * (k + 1) / 2)
                for k in range(2)
                for dx, dy in NODE_OFFSETS
            ]
            want = [
                await discover(single.host, single.port, f"u{i}", point)
                for i, point in enumerate(points)
            ]
            got = await asyncio.gather(
                *(
                    discover(*cluster.address, f"u{i}", point)
                    for i, point in enumerate(points)
                )
            )
            return want, got
        finally:
            await cluster.stop()
            await single.stop()

    want, got = run(scenario())
    assert len(got) >= 8
    assert got == want
    assert len({tuple(r["candidates"]["payload"]["node_ids"]) for r in want}) > 1


def test_routed_requests_ride_standing_links():
    """After warm-up a routed discover or heartbeat costs one TCP accept
    in the whole cluster — the client's, at the router — and none at the
    shard managers; a stopped router leaves no link behind."""

    async def scenario():
        cluster = ControlPlaneCluster(shards=2, replicas=2)
        await cluster.start()
        try:
            await heartbeat_all(*cluster.address)
            for index in range(len(NODE_OFFSETS)):
                await discover(*cluster.address, point=node_status(index).point)
            warm = accepted(cluster)
            assert 0 < warm <= 2 * 2  # at most one link per replica, ever
            await heartbeat_all(*cluster.address)
            for index in range(len(NODE_OFFSETS)):
                await discover(*cluster.address, point=node_status(index).point)
            assert accepted(cluster) == warm
            assert cluster.router is not None
            await cluster.router.stop()
            managers = [m for ms in cluster.managers for m in ms if m]
            await hung_up(*(m._open_writers for m in managers))
            return [len(m._open_writers) for m in managers]
        finally:
            await cluster.stop()

    assert run(scenario()) == [0, 0, 0, 0]


def test_kill_primary_promotes_standby_and_answers_identically():
    async def scenario():
        tracer = Tracer()
        cluster = ControlPlaneCluster(shards=2, replicas=2, tracer=tracer)
        await cluster.start()
        try:
            await heartbeat_all(*cluster.address)
            before = await discover(*cluster.address, user_id="u-before")
            await cluster.kill_primary(0)
            # The very next query rides the failed-RPC detection path:
            # mark down, promote, retry — one request, same answer.
            after = await discover(*cluster.address, user_id="u-after")
            status = await protocol.request(*cluster.address, "status")
            return before, after, status, [e.to_dict() for e in tracer.events()]
        finally:
            await cluster.stop()

    before, after, status, events = run(scenario())
    assert after["candidates"]["payload"]["node_ids"] == before["candidates"]["payload"]["node_ids"]
    assert status["promotions"] == 1
    assert status["primaries"][0] == 1
    assert status["down"][0] == [0]
    promotes = [e for e in events if e["type"] == "manager_promote"]
    assert len(promotes) == 1
    assert promotes[0]["shard"] == 0
    assert promotes[0]["reason"] == "unreachable"


def test_restart_replica_rejoins_with_registry_handoff():
    async def scenario():
        tracer = Tracer()
        cluster = ControlPlaneCluster(shards=2, replicas=2, tracer=tracer)
        await cluster.start()
        try:
            await heartbeat_all(*cluster.address)
            victim = await cluster.kill_primary(0)
            await discover(*cluster.address)  # trigger detection + promotion
            await cluster.restart_replica(0, victim)
            status = await protocol.request(*cluster.address, "status")
            # The returnee was re-seeded: its own registry holds the
            # shard's nodes even though it missed their heartbeats.
            rejoined = cluster.managers[0][victim]
            assert rejoined is not None
            replica_status = await protocol.request(
                "127.0.0.1", rejoined.port, "status"
            )
            return status, replica_status, [e.to_dict() for e in tracer.events()]
        finally:
            await cluster.stop()

    status, replica_status, events = run(scenario())
    assert status["down"] == [[], []]
    handoffs = [e for e in events if e["type"] == "registry_handoff"]
    assert len(handoffs) == 1
    assert handoffs[0]["reason"] == "rejoin"
    # The registry travelled by snapshot, not by replayed heartbeats.
    assert handoffs[0]["entries"] == len(replica_status["nodes"])
    assert replica_status["nodes"]  # non-empty: the snapshot travelled
    assert replica_status["heartbeats_received"] == 0


def test_rejoined_replica_gets_a_fresh_link():
    """Killed and restarted on its old port before the router noticed:
    the router's standing link belongs to the dead process. The first
    RPC after the rejoin must ride a new socket — not fail on the stale
    one and mark a healthy replica down."""

    async def scenario():
        cluster = ControlPlaneCluster(shards=2, replicas=2)
        await cluster.start()
        try:
            await heartbeat_all(*cluster.address)  # warms every link
            victim = await cluster.kill_primary(0)
            await cluster.restart_replica(0, victim)
            await heartbeat_all(*cluster.address)
            status = await protocol.request(*cluster.address, "status")
            rejoined = cluster.managers[0][victim]
            assert rejoined is not None
            return status, rejoined.heartbeats_received
        finally:
            await cluster.stop()

    status, heartbeats = run(scenario())
    assert status["down"] == [[], []]
    assert status["promotions"] == 0
    assert heartbeats > 0


def test_unavailable_shard_hangs_up_instead_of_replying():
    """Every replica down: the router closes the connection without a
    reply, so the client errors into its DiscoveryFailed path rather
    than mistaking an outage for an empty candidate list."""

    async def scenario():
        cluster = ControlPlaneCluster(shards=1, replicas=1)
        await cluster.start()
        try:
            await heartbeat_all(*cluster.address)
            await cluster.kill_primary(0)
            with pytest.raises((protocol.ProtocolError, OSError)):
                await discover(*cluster.address)
            status = await protocol.request(*cluster.address, "status")
            return status
        finally:
            await cluster.stop()

    status = run(scenario())
    assert status["promotions"] == 0
    assert status["down"] == [[0]]


def test_heartbeats_replicate_to_standbys():
    async def scenario():
        cluster = ControlPlaneCluster(shards=1, replicas=3)
        await cluster.start()
        try:
            await heartbeat_all(*cluster.address)
            counts = []
            for server in cluster.managers[0]:
                assert server is not None
                reply = await protocol.request(
                    "127.0.0.1", server.port, "status"
                )
                counts.append(len(reply["nodes"]))
            return counts
        finally:
            await cluster.stop()

    assert run(scenario()) == [len(NODE_OFFSETS)] * 3


def promotes(tracer: Tracer) -> list:
    return [e.to_dict() for e in tracer.events() if e.to_dict()["type"] == "manager_promote"]


def test_heartbeat_reaches_the_alive_replicas_when_a_standby_is_dead():
    async def scenario():
        tracer = Tracer()
        cluster = ControlPlaneCluster(shards=1, replicas=3, tracer=tracer)
        await cluster.start()
        try:
            await heartbeat_all(*cluster.address)  # warms every link
            standby = cluster.managers[0][1]
            assert standby is not None
            await standby.stop()
            cluster.managers[0][1] = None
            reply = await protocol.request(*cluster.address, "heartbeat", beat(0))
            status = await protocol.request(*cluster.address, "status")
            counts = [m.heartbeats_received for m in cluster.managers[0] if m]
            return reply, status, counts, promotes(tracer)
        finally:
            await cluster.stop()

    reply, status, counts, promoted = run(scenario())
    assert reply == {"ok": True, "delivered": 2}
    assert counts == [len(NODE_OFFSETS) + 1] * 2
    assert status["down"] == [[1]]
    assert status["primaries"] == [0]
    assert status["promotions"] == 0
    assert promoted == []


def test_concurrent_heartbeats_past_a_dead_primary_promote_once():
    """Every heartbeat in flight meets the dead primary and marks it
    down; only the first to finish finds the shard without a primary."""

    async def scenario():
        tracer = Tracer()
        cluster = ControlPlaneCluster(shards=1, replicas=3, tracer=tracer)
        await cluster.start()
        try:
            await heartbeat_all(*cluster.address)
            await cluster.kill_primary(0)
            replies = await asyncio.gather(
                *(
                    protocol.request(*cluster.address, "heartbeat", beat(index))
                    for index in range(len(NODE_OFFSETS))
                )
            )
            answer = await discover(*cluster.address)
            status = await protocol.request(*cluster.address, "status")
            return replies, answer, status, promotes(tracer)
        finally:
            await cluster.stop()

    replies, answer, status, promoted = run(scenario())
    assert all(reply["ok"] and reply["delivered"] == 2 for reply in replies)
    assert answer["ok"]
    assert status["primaries"] == [1]
    assert status["down"] == [[0]]
    assert status["promotions"] == 1
    assert [(e["shard"], e["replica"], e["reason"]) for e in promoted] == [(0, 1, "unreachable")]


@pytest.mark.parametrize("victim", [0, 1])
def test_boundary_discover_with_a_dead_primary_answers_like_a_single_manager(victim):
    """A query on the shards' common boundary fetches both; the one
    whose primary is dead fails over within the request, and the merged
    answer is the single manager's."""

    async def scenario():
        single = ManagerServer(tracer=Tracer.disabled())
        await single.start()
        tracer = Tracer()
        cluster = ControlPlaneCluster(shards=2, replicas=2, tracer=tracer)
        await cluster.start()
        try:
            assert cluster.router is not None
            owners = {
                cluster.router.router.owner_of(node_status(i, GREENWICH))
                for i in range(len(NODE_OFFSETS))
            }
            query = DiscoveryQuery(user_id="u", lat=GREENWICH.lat, lon=GREENWICH.lon, top_n=3)
            radius_km = cluster.router.router.policy.geo_filter.radius_km
            plan = cluster.router.router.plan(query, radius_km)
            await heartbeat_all(single.host, single.port, GREENWICH)
            await heartbeat_all(*cluster.address, GREENWICH)
            await cluster.kill_primary(victim)
            want = await discover(single.host, single.port, point=GREENWICH)
            got = await discover(*cluster.address, point=GREENWICH)
            status = await protocol.request(*cluster.address, "status")
            return owners, plan, want, got, status, promotes(tracer)
        finally:
            await cluster.stop()
            await single.stop()

    owners, plan, want, got, status, promoted = run(scenario())
    assert owners == {0, 1} and plan == (0, 1)
    assert got == want
    assert len(want["candidates"]["payload"]["node_ids"]) == 3
    assert status["down"][victim] == [0]
    assert [(e["shard"], e["replica"]) for e in promoted] == [(victim, 1)]
