"""Hostile peers on a pooled link.

A :class:`PersistentConnection` with a 0.2 s timeout talks to a peer
whose first connection misbehaves: it never replies, it writes a reply
one byte every 20 ms and never the newline (slow loris), it writes a
whole reply but no newline, it closes in the middle of a frame, or it
sends a line that is not UTF-8. The deadline is per exchange, not per
byte, so the first three are a ``TimeoutError`` on schedule however
much the peer trickles; the last two are a ``ProtocolError`` at once. Either way the link is dropped, the
next exchange reconnects to an honest answer, and no task and no armed
timer are left behind.

The other way round, a ``ManagerServer`` gets a frame well under
``MAX_FRAME_BYTES`` that no reply can come of: JSON nested deeper than
the decoder recurses, an integer with more digits than it converts, or
one flat list of 10**5 elements. It hangs up on that link, nothing
reaches the loop's exception handler, and the next connection is served.
"""

import asyncio
import random
import time

import pytest

from repro.runtime import ManagerServer, protocol
from repro.runtime.protocol import MAX_FRAME_BYTES, PersistentConnection, ProtocolError

SEED = 1729
TIMEOUT_S = 0.2


async def _silent(reader, writer, reply, rng):
    """Takes the request, never answers; waits for the hang-up."""
    await reader.read()


async def _slow_loris(reader, writer, reply, rng):
    """One byte of the reply every 20 ms, never the newline."""
    for byte in reply[:-1]:
        writer.write(bytes([byte]))
        await writer.drain()
        await asyncio.sleep(0.02)
    await reader.read()


async def _no_newline(reader, writer, reply, rng):
    """The whole reply at once, less its newline: still not a reply."""
    writer.write(reply[:-1])
    await reader.read()


async def _closes_mid_frame(reader, writer, reply, rng):
    """A seeded prefix of the reply, then the hang-up."""
    writer.write(reply[: rng.randrange(1, len(reply) - 1)])
    await writer.drain()


async def _not_utf8(reader, writer, reply, rng):
    """A whole line, with a byte no UTF-8 text has at a seeded place."""
    cut = rng.randrange(len(reply) - 1)
    writer.write(reply[:cut] + b"\xff" + reply[cut:])
    await reader.read()


class _HostilePeer:
    """A listener whose first connection gets ``behaviour``; every later
    one is served honestly (``{"echo": i}`` to ``{"i": i}``)."""

    def __init__(self, behaviour, rng):
        self.behaviour = behaviour
        self.rng = rng
        self.accepted = 0
        self.handlers = set()
        self.writers = protocol.OpenConnections()
        self.server = None

    async def start(self):
        self.server = await asyncio.start_server(self._handle, "127.0.0.1", 0)
        return self.server.sockets[0].getsockname()[1]

    async def _echo(self, frame):
        return {"echo": frame["payload"]["i"]}

    async def _handle(self, reader, writer):
        self.handlers.add(asyncio.current_task())
        self.accepted += 1
        if self.accepted > 1:
            await protocol.serve_connection(reader, writer, self._echo, self.writers)
            return
        try:
            request = await protocol.read_frame(reader)
            reply = protocol.encode_frame("reply", {"echo": request["payload"]["i"]})
            await self.behaviour(reader, writer, reply, self.rng)
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass  # the client aborted the link, or the test is tearing down
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def stop(self):
        await protocol.stop_serving(self.server, self.writers)
        current = asyncio.current_task()
        for task in self.handlers - {current}:
            task.cancel()
        await asyncio.gather(*(self.handlers - {current}), return_exceptions=True)


def _track_timers(loop):
    """Record every timer ``loop`` arms from now on."""
    armed = []
    call_at = loop.call_at

    def recording(when, callback, *args, **kwargs):
        handle = call_at(when, callback, *args, **kwargs)
        armed.append(handle)
        return handle

    loop.call_at = recording
    return armed


def _still_armed(loop, armed):
    now = loop.time()
    return [h for h in armed if not h.cancelled() and h.when() > now]


async def _exchange_with(behaviour, seed):
    rng = random.Random(seed)
    loop = asyncio.get_running_loop()
    armed = _track_timers(loop)
    peer = _HostilePeer(behaviour, rng)
    port = await peer.start()
    conn = PersistentConnection("127.0.0.1", port, timeout=TIMEOUT_S)
    first = rng.randrange(1 << 30)
    start = time.monotonic()
    try:
        # the outer bounds only keep a regression from hanging the suite
        await asyncio.wait_for(conn.request("echo", {"i": first}), 5.0)
    except (asyncio.TimeoutError, ProtocolError) as exc:
        outcome = exc
    else:  # pragma: no cover - the assertion below reports it
        outcome = None
    took = time.monotonic() - start
    dropped = not conn.connected
    second = rng.randrange(1 << 30)
    reply = await asyncio.wait_for(conn.request("echo", {"i": second}), 5.0)
    await conn.close()
    await peer.stop()
    left = [t for t in asyncio.all_tasks() if t is not asyncio.current_task()]
    return {
        "outcome": outcome,
        "took": took,
        "dropped": dropped,
        "echo": reply["echo"] == second,
        "accepted": peer.accepted,
        "tasks_left": left,
        "timers_left": _still_armed(loop, armed),
    }


def _run(behaviour, seed):
    return asyncio.run(_exchange_with(behaviour, seed))


@pytest.mark.parametrize("seed", [SEED, SEED + 1])
@pytest.mark.parametrize("behaviour", [_silent, _slow_loris, _no_newline],
                         ids=["silent", "slow_loris", "no_newline"])
def test_a_peer_that_withholds_the_reply_times_out_on_the_exchange_deadline(behaviour, seed):
    result = _run(behaviour, seed)
    assert isinstance(result["outcome"], asyncio.TimeoutError)
    assert TIMEOUT_S <= result["took"] <= 0.6
    assert result["dropped"]
    assert result["echo"] and result["accepted"] == 2
    assert result["tasks_left"] == []
    assert result["timers_left"] == []


@pytest.mark.parametrize("seed", [SEED, SEED + 1, SEED + 2])
@pytest.mark.parametrize("behaviour", [_closes_mid_frame, _not_utf8],
                         ids=["closes_mid_frame", "not_utf8"])
def test_a_peer_that_closes_mid_frame_or_sends_no_text_is_a_protocol_error_at_once(behaviour, seed):
    result = _run(behaviour, seed)
    assert isinstance(result["outcome"], ProtocolError)
    assert result["took"] < TIMEOUT_S
    assert result["dropped"]
    assert result["echo"] and result["accepted"] == 2
    assert result["tasks_left"] == []
    assert result["timers_left"] == []


#: Frames a server can read but never answer. On ``deep`` and
#: ``many_digits`` ``json`` itself raises (``RecursionError``,
#: ``ValueError``), which ``decode_frame`` must turn into its own error.
HOSTILE_FRAMES = {
    "deep": b'{"op": "status", "payload": {"x": ' + b"[" * 50_000 + b"]" * 50_000 + b"}}\n",
    "many_digits": b'{"op": "status", "payload": {"x": ' + b"7" * 50_000 + b"}}\n",
    "long_list": b"[" + b"0, " * 99_999 + b"0]\n",
}


async def _send_to_a_manager(frame):
    loop = asyncio.get_running_loop()
    reached = []
    loop.set_exception_handler(lambda loop, context: reached.append(context))
    server = ManagerServer()
    await server.start()
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        writer.write(frame)
        await writer.drain()
        # the outer bounds only keep a regression from hanging the suite
        answer = await asyncio.wait_for(reader.read(), 5.0)
        writer.close()
        await writer.wait_closed()
        status = await asyncio.wait_for(
            protocol.request("127.0.0.1", server.port, "status"), 5.0
        )
    finally:
        await server.stop()
    left = [t for t in asyncio.all_tasks() if t is not asyncio.current_task()]
    return answer, status, reached, left


@pytest.mark.parametrize("name", sorted(HOSTILE_FRAMES))
def test_a_frame_no_reply_can_come_of_closes_only_its_own_link(name):
    frame = HOSTILE_FRAMES[name]
    assert len(frame) < MAX_FRAME_BYTES
    with pytest.raises(ProtocolError):
        protocol.decode_frame(frame)
    answer, status, reached, left = asyncio.run(_send_to_a_manager(frame))
    assert answer == b""  # hung up, no reply
    assert status["ok"] and status["connections_accepted"] == 2
    assert reached == []
    assert left == []
