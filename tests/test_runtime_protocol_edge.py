"""Edge cases for the live runtime's protocol layer."""

import asyncio
import gc
import time
import warnings

import pytest

from repro.geo.point import GeoPoint
from repro.nodes.hardware import profile_by_name
from repro.runtime import protocol
from repro.runtime.edge_server import LiveEdgeServer
from repro.runtime.manager_server import ManagerServer
from repro.runtime.protocol import ConnectionPool, PersistentConnection


def run(coro):
    return asyncio.run(coro)


async def until(condition, what: str, timeout_s: float = 2.0) -> None:
    """Poll ``condition()`` until it holds; fail after ``timeout_s``.

    For state another task changes when the loop gets to it (a server
    seeing a hang-up, a retried heartbeat landing): the wait ends with
    the event, not after a guessed sleep.
    """
    deadline = time.monotonic() + timeout_s
    while not condition():
        assert time.monotonic() < deadline, f"not within {timeout_s} s: {what}"
        await asyncio.sleep(0.001)


async def hung_up(*open_writers: protocol.OpenConnections) -> None:
    """Wait until every listed server has seen its peers hang up."""
    await until(lambda: not any(open_writers), "servers saw every hang-up")


def test_oversized_frame_rejected():
    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(b"x" * (protocol.MAX_FRAME_BYTES + 10) + b"\n")
        reader.feed_eof()
        with pytest.raises(protocol.ProtocolError):
            await protocol.read_frame(reader)

    run(scenario())


async def _blob_server():
    """Replies with ``n`` bytes of payload to ``{"n": n}``, whatever else
    the request carried; its reader has the runtime's frame cap."""
    writers = protocol.OpenConnections()

    async def dispatch(frame):
        return {"blob": "y" * frame["payload"]["n"]}

    server = await asyncio.start_server(
        lambda r, w: protocol.serve_connection(r, w, dispatch, writers),
        "127.0.0.1", 0, limit=protocol.MAX_FRAME_BYTES,
    )
    return server, writers, server.sockets[0].getsockname()[1]


def test_frames_up_to_the_cap_pass_and_beyond_it_are_protocol_errors(caplog):
    """``MAX_FRAME_BYTES`` is the one cap: a 70 000-byte frame (past
    asyncio's default 64 KiB reader limit) passes each way, and a line
    over the cap is a ``ProtocolError`` on the side that reads it — a
    closed connection, not an exception escaping into the loop."""

    async def scenario():
        server, writers, port = await _blob_server()
        edge = LiveEdgeServer(
            "e1", profile_by_name("V1"), GeoPoint(44.98, -93.26), time_scale=0.01
        )
        manager = ManagerServer()
        await edge.start()
        await manager.start()
        big, too_big = "x" * 70_000, "x" * (protocol.MAX_FRAME_BYTES + 10)
        try:
            conn = PersistentConnection("127.0.0.1", port, timeout=2.0)
            reply = await conn.request("blob", {"n": 70_000, "pad": big})
            assert len(reply["blob"]) == 70_000
            # the client reads an oversized reply
            with pytest.raises(protocol.ProtocolError, match="too large"):
                await conn.request("blob", {"n": protocol.MAX_FRAME_BYTES + 10})
            assert not conn.connected
            await conn.close()
            for live in (edge, manager):
                link = PersistentConnection(live.host, live.port, timeout=2.0)
                assert (await link.request("status", {"pad": big}))["ok"]
                # the server reads an oversized request and hangs up
                with pytest.raises((protocol.ProtocolError, OSError)):
                    await link.request("status", {"pad": too_big})
                assert not link.connected
                assert (await link.request("status"))["ok"]
                await link.close()
            await hung_up(edge._open_writers, manager._open_writers)
        finally:
            await protocol.stop_serving(server, writers)
            await edge.stop()
            await manager.stop()

    with caplog.at_level("ERROR", logger="asyncio"):
        run(scenario())
    assert caplog.records == []  # e.g. "Unhandled exception in client_connected_cb"


def test_read_frame_eof_returns_none():
    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_eof()
        return await protocol.read_frame(reader)

    assert run(scenario()) is None


def test_request_to_dead_port_raises():
    async def scenario():
        with pytest.raises(OSError):
            # port 1 on localhost: connection refused
            await protocol.request("127.0.0.1", 1, "status", timeout=1.0)

    run(scenario())


def test_persistent_connection_reconnects_lazily():
    async def scenario():
        edge = LiveEdgeServer(
            "e1", profile_by_name("V1"), GeoPoint(44.98, -93.26), time_scale=0.01
        )
        await edge.start()
        connection = PersistentConnection(edge.host, edge.port, timeout=2.0)
        first = await connection.request("rtt_probe")
        assert first["ok"]
        assert connection.connected
        await connection.close()
        assert not connection.connected
        # a new request transparently re-opens the socket
        second = await connection.request("rtt_probe")
        assert second["ok"]
        await connection.close()
        await edge.stop()

    run(scenario())


def test_persistent_connection_detects_peer_death():
    async def scenario():
        edge = LiveEdgeServer(
            "e1", profile_by_name("V1"), GeoPoint(44.98, -93.26), time_scale=0.01
        )
        await edge.start()
        connection = PersistentConnection(edge.host, edge.port, timeout=2.0)
        await connection.request("rtt_probe")
        await edge.stop()  # node dies; standing socket severed
        with pytest.raises((protocol.ProtocolError, OSError, asyncio.TimeoutError)):
            await connection.request("rtt_probe")
        await connection.close()

    run(scenario())


def test_stopped_manager_severs_standing_connections():
    """A stopped manager is a dead manager: ``stop()`` must neither
    wait for a peer's kept-alive link (3.12 would, forever) nor keep
    answering on it (3.10/3.11 would)."""

    async def scenario():
        manager = ManagerServer()
        await manager.start()
        connection = PersistentConnection(manager.host, manager.port, timeout=2.0)
        assert (await connection.request("status"))["ok"]
        await asyncio.wait_for(manager.stop(), 1.0)
        with pytest.raises((protocol.ProtocolError, OSError)):
            await connection.request("status")
        assert not connection.connected  # the failed exchange closed it
        await connection.close()

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run(scenario())
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_request_rides_the_pool_link_when_given_one():
    async def scenario():
        manager = ManagerServer()
        await manager.start()
        address = (manager.host, manager.port)
        pool = ConnectionPool()
        for _ in range(5):
            assert (await protocol.request(*address, "status", pool=pool))["ok"]
        assert manager.connections_accepted == 1
        # a discarded link is closed; the next exchange gets a fresh one
        stale = pool.link(*address)
        pool.discard(*address)
        assert not stale.connected
        reply = await protocol.request(*address, "status", pool=pool)
        assert reply["connections_accepted"] == manager.connections_accepted == 2
        # without a pool: a connection of its own, closed afterwards
        await protocol.request(*address, "status")
        assert manager.connections_accepted == 3
        kept = pool.link(*address)
        await pool.close()
        assert not kept.connected
        # a closed pool keeps nothing: the exchange works, its link is closed
        assert (await protocol.request(*address, "status", pool=pool))["ok"]
        assert not pool.link(*address).connected
        await hung_up(manager._open_writers)
        await manager.stop()

    run(scenario())


def test_edge_malformed_frame_closes_connection_quietly():
    async def scenario():
        edge = LiveEdgeServer(
            "e1", profile_by_name("V1"), GeoPoint(44.98, -93.26), time_scale=0.01
        )
        await edge.start()
        reader, writer = await asyncio.open_connection(edge.host, edge.port)
        writer.write(b"this is not json\n")
        await writer.drain()
        # server drops the connection instead of crashing
        data = await reader.read()
        assert data == b""
        writer.close()
        # the node is still perfectly serviceable afterwards
        reply = await protocol.request(edge.host, edge.port, "status")
        assert reply["ok"]
        await edge.stop()

    run(scenario())


def test_frame_shedding_under_queue_pressure():
    async def scenario():
        edge = LiveEdgeServer(
            "slow", profile_by_name("V5"), GeoPoint(44.9, -93.1), time_scale=0.05
        )
        edge.max_queue_depth = 2
        await edge.start()
        # fire a burst far beyond the queue bound
        replies = await asyncio.gather(
            *[
                protocol.request(edge.host, edge.port, "frame", timeout=10.0)
                for _ in range(8)
            ]
        )
        await edge.stop()
        return replies

    replies = run(scenario())
    shed = [r for r in replies if not r.get("ok")]
    served = [r for r in replies if r.get("ok")]
    assert shed, "queue bound never engaged"
    assert served, "everything was shed"
    for r in shed:
        assert r["error"] == "overloaded"


def test_status_geohash_follows_a_replaced_point():
    from repro.geo import geohash

    edge = LiveEdgeServer("e1", profile_by_name("V1"), GeoPoint(44.98, -93.26))
    first = edge.status().geohash
    assert first == geohash.encode(44.98, -93.26, 9)
    assert edge.status().geohash is first  # encoded once while the node stays put
    edge.point = GeoPoint(44.90, -93.10)
    assert edge.status().geohash == geohash.encode(44.90, -93.10, 9)


def test_connection_accepted_while_stopping_is_hung_up_not_served():
    """Regression: ``stop_serving`` swept ``open_writers`` once, so a
    connection asyncio had accepted but whose handler first ran after
    the sweep registered itself too late, was served for as long as the
    peer liked and its socket outlived the server (the ~1-in-15 leak in
    ``test_cluster_manager_outage_degrades_gracefully``). Stop is final:
    the late arrival sees it and hangs up."""

    async def scenario():
        writers = protocol.OpenConnections()
        accepted, held = [], asyncio.Event()

        async def dispatch(frame):
            return {"ok": True}

        async def handler(reader, writer):
            accepted.append(writer)
            await held.wait()  # accepted; serve_connection is yet to run
            await protocol.serve_connection(reader, writer, dispatch, writers)

        server = await asyncio.start_server(handler, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            while not accepted:
                await asyncio.sleep(0)
            # No yield from here to the sweep: the handler resumes after it.
            asyncio.get_running_loop().call_soon(held.set)
            await protocol.stop_serving(server, writers)
            writer.write(protocol.encode_frame("status", {}))
            # EOF with nothing answered; a server still serving would
            # reply and hold the line, and this read would time out.
            assert await asyncio.wait_for(reader.read(), timeout=2.0) == b""
            assert accepted[0].transport.is_closing() and not writers
        finally:
            writer.close()
            await writer.wait_closed()

    run(scenario())
    gc.collect()  # under -W error::ResourceWarning a leaked transport fails here
