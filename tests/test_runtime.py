"""Tests for the live asyncio TCP runtime: protocol framing, manager,
edge servers, clients, and the full cluster."""

import asyncio

import pytest

from repro.geo.point import GeoPoint
from repro.nodes.hardware import VOLUNTEER_PROFILES, profile_by_name
from repro.runtime import LiveClient, LiveEdgeServer, LocalCluster, ManagerServer
from repro.runtime import protocol
from repro.world import sampled_world


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# Protocol framing
# ----------------------------------------------------------------------
def test_encode_decode_roundtrip():
    frame = protocol.encode_frame("join", {"user_id": "u1", "seq_num": 3})
    decoded = protocol.decode_frame(frame)
    assert decoded == {"op": "join", "payload": {"user_id": "u1", "seq_num": 3}}


def test_decode_rejects_garbage():
    with pytest.raises(protocol.ProtocolError):
        protocol.decode_frame(b"not json\n")
    with pytest.raises(protocol.ProtocolError):
        protocol.decode_frame(b'{"payload": {}}\n')


def test_encode_defaults_empty_payload():
    decoded = protocol.decode_frame(protocol.encode_frame("ping"))
    assert decoded["payload"] == {}


# ----------------------------------------------------------------------
# Manager server
# ----------------------------------------------------------------------
def test_manager_heartbeat_and_status():
    async def scenario():
        manager = ManagerServer()
        await manager.start()
        edge = LiveEdgeServer(
            "e1",
            profile_by_name("V1"),
            GeoPoint(44.98, -93.26),
            manager_host=manager.host,
            manager_port=manager.port,
            heartbeat_period_s=0.05,
            time_scale=0.01,
        )
        await edge.start()
        # start() returns registered: no heartbeat round to wait for
        assert "e1" in manager._registry
        status = await protocol.request(manager.host, manager.port, "status")
        await edge.stop()
        await manager.stop()
        return status

    status = run(scenario())
    assert status["ok"]
    assert status["nodes"] == ["e1"]
    assert status["heartbeats_received"] >= 1


def test_manager_unknown_op():
    async def scenario():
        manager = ManagerServer()
        await manager.start()
        reply = await protocol.request(manager.host, manager.port, "frobnicate")
        await manager.stop()
        return reply

    reply = run(scenario())
    assert not reply["ok"]
    assert "unknown op" in reply["error"]


# ----------------------------------------------------------------------
# Edge server
# ----------------------------------------------------------------------
def test_edge_probe_join_leave_cycle():
    async def scenario():
        edge = LiveEdgeServer(
            "e1", profile_by_name("V1"), GeoPoint(44.98, -93.26), time_scale=0.01
        )
        await edge.start()
        results = {}
        probe = await protocol.request(edge.host, edge.port, "process_probe")
        results["probe_ok"] = probe["ok"]
        seq = probe["probe"]["payload"]["seq_num"]
        join = await protocol.request(
            edge.host, edge.port, "join", {"user_id": "u1", "seq_num": seq}
        )
        results["join_accepted"] = join["accepted"]
        stale = await protocol.request(
            edge.host, edge.port, "join", {"user_id": "u2", "seq_num": seq}
        )
        results["stale_rejected"] = not stale["accepted"]
        frame = await protocol.request(edge.host, edge.port, "frame")
        results["frame_ok"] = frame["ok"]
        results["proc_ms"] = frame["proc_ms"]
        await protocol.request(edge.host, edge.port, "leave", {"user_id": "u1"})
        status = await protocol.request(edge.host, edge.port, "status")
        results["attached_after_leave"] = status["attached"]
        await edge.stop()
        return results

    results = run(scenario())
    assert results["probe_ok"]
    assert results["join_accepted"]
    assert results["stale_rejected"]
    assert results["frame_ok"]
    # sojourn is rescaled to application time: ~24 ms for V1
    assert results["proc_ms"] >= 20.0
    assert results["attached_after_leave"] == []


def test_edge_unexpected_join_never_rejected():
    async def scenario():
        edge = LiveEdgeServer(
            "e1", profile_by_name("V2"), GeoPoint(44.95, -93.20), time_scale=0.01
        )
        await edge.start()
        reply = await protocol.request(
            edge.host, edge.port, "unexpected_join", {"user_id": "u9"}
        )
        status = await protocol.request(edge.host, edge.port, "status")
        await edge.stop()
        return reply, status

    reply, status = run(scenario())
    assert reply["accepted"]
    assert status["attached"] == ["u9"]


def test_edge_rejects_bad_time_scale():
    with pytest.raises(ValueError):
        LiveEdgeServer("e", profile_by_name("V1"), GeoPoint(0, 0), time_scale=0.0)


# ----------------------------------------------------------------------
# Full cluster end to end
# ----------------------------------------------------------------------
def test_cluster_select_offload_and_failover():
    async def scenario():
        cluster = LocalCluster(
            sampled_world(VOLUNTEER_PROFILES[:3], n_clients=1),
            time_scale=0.01,
            heartbeat_period_s=0.05,
        )
        await cluster.start()
        try:
            client = cluster.clients[0]
            chosen = await client.select_and_join()
            latencies = [await client.offload_frame() for _ in range(5)]
            backups_before = list(client.backups)
            await cluster.kill_edge(chosen)
            lost = await client.offload_frame()  # triggers failover
            recovered = await client.offload_frame()
            return {
                "chosen": chosen,
                "latencies": [l for l in latencies if l is not None],
                "backups": backups_before,
                "lost": lost,
                "after": client.current_edge,
                "recovered": recovered,
                "failovers": client.stats.covered_failovers,
            }
        finally:
            await cluster.stop()

    result = run(scenario())
    assert result["chosen"].startswith("edge-")
    assert len(result["latencies"]) == 5
    assert len(result["backups"]) == 2  # TopN=3 -> 2 proactive backups
    assert result["lost"] is None
    assert result["after"] in result["backups"]
    assert result["recovered"] is not None
    assert result["failovers"] == 1


def test_cluster_two_clients_share_fleet():
    async def scenario():
        cluster = LocalCluster(
            sampled_world(VOLUNTEER_PROFILES[:2], n_clients=2),
            time_scale=0.01,
            heartbeat_period_s=0.05,
        )
        await cluster.start()
        try:
            attachments = []
            for client in cluster.clients:
                attachments.append(await client.select_and_join())
            # both edges must agree about who is attached where
            per_edge = {}
            for edge in cluster.edges:
                per_edge[edge.node_id] = sorted(edge.attached)
            return attachments, per_edge
        finally:
            await cluster.stop()

    attachments, per_edge = run(scenario())
    all_attached = [u for users in per_edge.values() for u in users]
    assert sorted(all_attached) == ["user-01", "user-02"]
    for client_name, edge_name in zip(("user-01", "user-02"), attachments):
        assert client_name in per_edge[edge_name]


def test_cluster_validates_profiles():
    with pytest.raises(ValueError):
        LocalCluster(sampled_world([], n_clients=1))


def test_cluster_manager_outage_degrades_gracefully():
    """Satellite of the fault-injection work: a Central Manager outage
    must not interrupt attached clients. Frames keep flowing on the
    standing edge connections, a selection round during the outage
    falls back to the last candidate list (degraded, not stalled), and
    once the manager returns heartbeats re-register every edge so
    fresh discovery works again."""
    from repro.obs.tracer import Tracer

    async def scenario():
        tracer = Tracer()
        cluster = LocalCluster(
            sampled_world(VOLUNTEER_PROFILES[:3], n_clients=1),
            time_scale=0.01,
            heartbeat_period_s=0.05,
            tracer=tracer,
        )
        await cluster.start()
        try:
            for edge in cluster.edges:
                edge.max_heartbeat_backoff_s = 0.2  # quick post-outage return
            client = cluster.clients[0]
            chosen = await client.select_and_join()

            await cluster.stop_manager()
            during = [await client.offload_frame() for _ in range(5)]
            # a probing round during the outage: discovery is dark, but
            # the round degrades to the remembered candidates + backups
            rejoined_during = await client.select_and_join()

            await cluster.restart_manager()
            await asyncio.sleep(0.5)  # heartbeats re-register the fleet
            status = await protocol.request(
                cluster.manager.host, cluster.manager.port, "status"
            )
            rejoined_after = await client.select_and_join()
            after = await client.offload_frame()
            types = [e.type for e in tracer.events()]
            return {
                "chosen": chosen,
                "during": during,
                "rejoined_during": rejoined_during,
                "registry": status["nodes"],
                "rejoined_after": rejoined_after,
                "after": after,
                "types": types,
            }
        finally:
            await cluster.stop()

    result = run(scenario())
    # frames never stopped while the manager was down
    assert all(latency is not None for latency in result["during"])
    # the outage round still produced an attachment, via the fallback
    assert result["rejoined_during"].startswith("edge-")
    assert "degraded_fallback" in result["types"]
    # the returned manager re-learned every edge from heartbeats
    assert len(result["registry"]) == 3
    # and fresh discovery works again end to end
    assert result["rejoined_after"].startswith("edge-")
    assert result["after"] is not None


def test_links_follow_the_backup_list_as_the_client_moves():
    """A node that leaves the backup list loses its link, as in the sim:
    after every round the client holds links only to its current edge
    and its backups. The client walks from edge to edge, so each round
    reshuffles the candidates (TopN 2: one backup)."""
    from repro.nodes.hardware import profile_by_name

    async def scenario():
        world = sampled_world(
            [profile_by_name(f"V{i}") for i in range(1, 6)], n_clients=1, seed=3
        )
        cluster = LocalCluster(world, top_n=2, time_scale=0.01, heartbeat_period_s=0.05)
        await cluster.start()
        try:
            client = cluster.clients[0]
            rounds = []
            for edge in cluster.edges:
                client.point = edge.point
                current = await client.select_and_join()
                rounds.append((set(client.connections), {current, *client.backups}))
            return rounds
        finally:
            await cluster.stop()

    for links, kept in run(scenario()):
        assert links <= kept
