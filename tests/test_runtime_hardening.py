"""Tests for the hardened live runtime: retry budgets, circuit
breakers, the reconnect cap, and fail-fast behaviour against dead
peers."""

import asyncio
import random
import time

import pytest

from repro.geo.point import GeoPoint
from repro.nodes.hardware import profile_by_name
from repro.runtime import LiveEdgeServer
from repro.runtime import protocol
from repro.runtime.protocol import (
    CircuitBreaker,
    EdgeUnreachableError,
    PersistentConnection,
    ProtocolError,
    RetryPolicy,
    call_with_retry,
    serve_connection,
    stop_serving,
)


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# RetryPolicy / call_with_retry
# ----------------------------------------------------------------------
def test_retry_policy_validates():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(budget_s=0.0)


def test_retry_policy_decorrelated_jitter_bounds():
    policy = RetryPolicy(base_delay_s=0.05, max_delay_s=0.5)
    rng = random.Random(1)
    delay = policy.base_delay_s
    for _ in range(100):
        delay = policy.next_delay(delay, rng)
        assert policy.base_delay_s <= delay <= policy.max_delay_s


def test_call_with_retry_succeeds_after_transient_failures():
    calls = []

    async def attempt():
        calls.append(1)
        if len(calls) < 3:
            raise asyncio.TimeoutError("transient")
        return {"ok": True}

    async def no_sleep(_):
        pass

    async def scenario():
        return await call_with_retry(
            attempt,
            RetryPolicy(max_attempts=5, budget_s=10.0),
            rng=random.Random(1),
            sleep=no_sleep,
        )

    assert run(scenario()) == {"ok": True}
    assert len(calls) == 3


def test_call_with_retry_exhausts_attempts():
    calls = []

    async def attempt():
        calls.append(1)
        raise ProtocolError("down")

    async def no_sleep(_):
        pass

    async def scenario():
        await call_with_retry(
            attempt,
            RetryPolicy(max_attempts=3, budget_s=10.0),
            rng=random.Random(1),
            sleep=no_sleep,
        )

    with pytest.raises(ProtocolError):
        run(scenario())
    assert len(calls) == 3


def test_call_with_retry_respects_latency_budget():
    """The budget bounds total time: no backoff sleep may cross it."""
    now = [0.0]

    async def fake_sleep(s):
        now[0] += s

    calls = []

    async def attempt():
        calls.append(1)
        now[0] += 0.1  # each attempt costs 100 ms
        raise asyncio.TimeoutError("down")

    async def scenario():
        await call_with_retry(
            attempt,
            RetryPolicy(
                max_attempts=100,
                budget_s=0.5,
                base_delay_s=0.2,
                max_delay_s=0.2,
            ),
            rng=random.Random(1),
            clock=lambda: now[0],
            sleep=fake_sleep,
        )

    with pytest.raises(asyncio.TimeoutError):
        run(scenario())
    # 100 attempts were allowed by count, but the 0.5 s budget admits
    # only a couple of 0.2 s backoffs between 0.1 s attempts.
    assert len(calls) <= 3
    assert now[0] <= 0.5 + 0.2


def test_call_with_retry_never_retries_unreachable():
    calls = []

    async def attempt():
        calls.append(1)
        raise EdgeUnreachableError("breaker open")

    async def scenario():
        await call_with_retry(
            attempt, RetryPolicy(max_attempts=5, budget_s=10.0)
        )

    with pytest.raises(EdgeUnreachableError):
        run(scenario())
    assert len(calls) == 1  # fail-fast is not hammered


def test_call_with_retry_reports_backoff_via_on_retry():
    schedule = []

    async def attempt():
        raise asyncio.TimeoutError("down")

    async def no_sleep(_):
        pass

    async def scenario():
        await call_with_retry(
            attempt,
            RetryPolicy(max_attempts=3, budget_s=10.0),
            rng=random.Random(1),
            on_retry=lambda n, d: schedule.append((n, d)),
            sleep=no_sleep,
        )

    with pytest.raises(asyncio.TimeoutError):
        run(scenario())
    assert [n for n, _ in schedule] == [1, 2]
    assert all(d > 0 for _, d in schedule)


# ----------------------------------------------------------------------
# CircuitBreaker
# ----------------------------------------------------------------------
def test_breaker_opens_after_consecutive_failures():
    clock = [0.0]
    breaker = CircuitBreaker(3, 2.0, clock=lambda: clock[0])
    assert breaker.state == "closed"
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == "closed"  # not yet at the threshold
    breaker.record_failure()
    assert breaker.state == "open"
    assert not breaker.allow()


def test_breaker_success_resets_failure_streak():
    breaker = CircuitBreaker(3, 2.0, clock=lambda: 0.0)
    breaker.record_failure()
    breaker.record_failure()
    breaker.record_success()  # streak broken
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == "closed"


def test_breaker_half_open_admits_one_trial():
    clock = [0.0]
    breaker = CircuitBreaker(1, 2.0, clock=lambda: clock[0])
    breaker.record_failure()
    assert breaker.state == "open"
    clock[0] = 2.5
    assert breaker.state == "half_open"
    assert breaker.allow()  # the single trial
    assert not breaker.allow()  # concurrent caller keeps failing fast
    breaker.record_success()
    assert breaker.state == "closed"
    assert breaker.allow()


def test_breaker_half_open_failure_reopens_and_restarts_clock():
    clock = [0.0]
    breaker = CircuitBreaker(1, 2.0, clock=lambda: clock[0])
    breaker.record_failure()
    clock[0] = 2.5
    assert breaker.allow()
    breaker.record_failure()  # trial failed
    assert breaker.state == "open"
    clock[0] = 3.0  # only 0.5 s since reopening
    assert breaker.state == "open"
    clock[0] = 5.0
    assert breaker.state == "half_open"


def test_breaker_reports_transitions():
    transitions = []
    clock = [0.0]
    breaker = CircuitBreaker(
        1,
        2.0,
        clock=lambda: clock[0],
        on_transition=lambda old, new: transitions.append((old, new)),
    )
    breaker.record_failure()
    clock[0] = 2.5
    breaker.allow()
    breaker.record_success()
    assert transitions == [
        ("closed", "open"),
        ("open", "half_open"),
        ("half_open", "closed"),
    ]


def test_breaker_validates_threshold():
    with pytest.raises(ValueError):
        CircuitBreaker(0)


# ----------------------------------------------------------------------
# PersistentConnection: reconnect cap + breaker fail-fast
# ----------------------------------------------------------------------
def _dead_port():
    """A localhost port with nothing listening (bind-then-close)."""
    import socket

    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


def test_connection_validates_reconnect_cap():
    with pytest.raises(ValueError):
        PersistentConnection("127.0.0.1", 1, max_reconnect_attempts=0)


def test_connection_reconnect_cap_raises_unreachable():
    async def scenario():
        conn = PersistentConnection(
            "127.0.0.1", _dead_port(), timeout=0.2, max_reconnect_attempts=2
        )
        errors = []
        for _ in range(4):
            try:
                await conn.request("status")
            except EdgeUnreachableError:
                errors.append("unreachable")
            except (OSError, ProtocolError, asyncio.TimeoutError):
                errors.append("transport")
        await conn.close()
        return errors

    errors = run(scenario())
    # the first two failures pay real connect errors; once the cap is
    # hit every further request fails fast with the typed error
    assert errors[:2] == ["transport", "transport"]
    assert errors[2:] == ["unreachable", "unreachable"]


def test_connection_breaker_bounds_dead_edge_latency():
    """With a breaker, a dead edge costs ``failure_threshold`` timeouts
    total — requests after the trip return in microseconds, so tail
    latency against a dead peer is bounded by fail-fast."""

    async def scenario():
        breaker = CircuitBreaker(2, reset_timeout_s=60.0)
        conn = PersistentConnection(
            "127.0.0.1",
            _dead_port(),
            timeout=0.2,
            max_reconnect_attempts=100,  # isolate the breaker's effect
            breaker=breaker,
        )
        durations = []
        for _ in range(6):
            start = time.monotonic()
            with pytest.raises((EdgeUnreachableError, OSError, ProtocolError)):
                await conn.request("status")
            durations.append(time.monotonic() - start)
        await conn.close()
        return breaker.state, durations

    state, durations = run(scenario())
    assert state == "open"
    # p95-style bound: every post-trip request is far below the 0.2 s
    # connect timeout — fail-fast, not another timeout.
    for d in durations[2:]:
        assert d < 0.05


def test_connection_live_edge_round_trip_closes_breaker():
    """Against a live edge the breaker stays closed and requests flow."""

    async def scenario():
        edge = LiveEdgeServer(
            "e1", profile_by_name("V1"), GeoPoint(44.98, -93.26), time_scale=0.01
        )
        await edge.start()
        breaker = CircuitBreaker(2, reset_timeout_s=60.0)
        conn = PersistentConnection(
            edge.host, edge.port, timeout=1.0, breaker=breaker
        )
        try:
            reply = await conn.request("status")
            return breaker.state, reply["ok"]
        finally:
            await conn.close()
            await edge.stop()

    state, ok = run(scenario())
    assert state == "closed"
    assert ok is True


# ----------------------------------------------------------------------
# One reply per request, whatever the timing
# ----------------------------------------------------------------------
async def _echo_server(delay_s, hang_up_on=()):
    """Replies ``{"echo": i}`` to ``{"i": i}`` after ``delay_s(i)``;
    hangs up instead, after the same delay, for ``i`` in ``hang_up_on``."""
    writers = protocol.OpenConnections()

    async def dispatch(frame):
        i = frame["payload"]["i"]
        await asyncio.sleep(delay_s(i))
        return None if i in hang_up_on else {"echo": i}

    server = await asyncio.start_server(
        lambda r, w: serve_connection(r, w, dispatch, writers), "127.0.0.1", 0
    )
    return server, writers, server.sockets[0].getsockname()[1]


def test_connection_timeout_never_desyncs_replies():
    """Reply 0 arrives after its request timed out. It must die with
    the socket — not be read as the answer to request 1, shifting every
    later reply by one."""

    async def scenario():
        server, writers, port = await _echo_server(lambda i: 0.3 if i == 0 else 0.0)
        conn = PersistentConnection("127.0.0.1", port, timeout=0.1)
        outcomes = []
        for i in range(3):
            try:
                outcomes.append((await conn.request("echo", {"i": i}))["echo"])
            except asyncio.TimeoutError:
                outcomes.append("timeout")
                assert not conn.connected
        await conn.close()
        await stop_serving(server, writers)
        return outcomes

    assert run(scenario()) == ["timeout", 1, 2]


def test_connection_serialises_concurrent_callers():
    """Many tasks share one link (the router's handlers do): each gets
    the reply to its own request, although the server answers the early
    ones slowest."""

    async def scenario():
        server, writers, port = await _echo_server(lambda i: 0.002 * (16 - i))
        conn = PersistentConnection("127.0.0.1", port, timeout=2.0)
        replies = await asyncio.gather(
            *(conn.request("echo", {"i": i}) for i in range(16))
        )
        await conn.close()
        await stop_serving(server, writers)
        return [reply["echo"] for reply in replies]

    assert run(scenario()) == list(range(16))


# ----------------------------------------------------------------------
# The exchange is a write and a read under the link's one deadline
# watchdog: no task, and a timeout is a dead socket
# ----------------------------------------------------------------------
#: Tasks the *server* side of a loopback exchange creates per connection.
_SERVER_TASKS = {"BaseSelectorEventLoop._accept_connection2", "serve_connection"}


def _count_tasks(created):
    """Install a task factory that records what each new task runs."""

    def factory(loop, coro, **kwargs):
        created.append(coro.__qualname__)
        return asyncio.Task(coro, loop=loop, **kwargs)

    asyncio.get_running_loop().set_task_factory(factory)


def test_exchange_creates_no_task():
    async def scenario():
        server, writers, port = await _echo_server(lambda i: 0.0)
        conn = PersistentConnection("127.0.0.1", port, timeout=2.0)
        await conn.request("echo", {"i": 0})  # connects; the handler task exists now
        created = []
        _count_tasks(created)
        for i in range(200):
            assert (await conn.request("echo", {"i": i}))["echo"] == i
        standing = list(created)
        for i in range(20):
            reply = await protocol.request("127.0.0.1", port, "echo", {"i": i})
            assert reply["echo"] == i
        await conn.close()
        await stop_serving(server, writers)
        return standing, list(created)  # before asyncio.run's own shutdown tasks

    standing, created = run(scenario())
    assert standing == []
    assert [name for name in created if name not in _SERVER_TASKS] == []
    assert created.count("serve_connection") == 20


def test_connection_timeout_on_a_silent_peer():
    """No reply: ``TimeoutError`` after about the timeout, on a dropped
    socket, counted once by the breaker; the next request reconnects
    and reads its own reply."""

    async def scenario():
        server, writers, port = await _echo_server(lambda i: 0.5 if i == 0 else 0.0)
        failures = []
        breaker = CircuitBreaker(5)
        record = breaker.record_failure
        breaker.record_failure = lambda: (failures.append(1), record())
        conn = PersistentConnection("127.0.0.1", port, timeout=0.1, breaker=breaker)
        start = time.monotonic()
        with pytest.raises(asyncio.TimeoutError):
            await conn.request("echo", {"i": 0})
        took = time.monotonic() - start
        assert not conn.connected
        reply = await conn.request("echo", {"i": 1})
        await conn.close()
        await stop_serving(server, writers)
        return took, len(failures), reply["echo"], breaker.state

    took, failures, echo, state = run(scenario())
    assert 0.09 <= took < 0.4
    assert (failures, echo, state) == (1, 1, "closed")


def test_cancelled_caller_sees_cancellation_and_leaves_no_timer():
    """A caller cancelled mid-exchange gets ``CancelledError`` (not a
    timeout) on a dropped link, and its timer goes with it: were it
    still armed it would fire during the next exchange, whose hang-up
    would then be reported as a timeout."""

    async def scenario():
        server, writers, port = await _echo_server(
            lambda i: 5.0 if i == 0 else 0.4, hang_up_on={1}
        )
        conn = PersistentConnection("127.0.0.1", port)
        first = asyncio.ensure_future(conn.request("echo", {"i": 0}, timeout=0.2))
        await asyncio.sleep(0.05)
        first.cancel()
        with pytest.raises(asyncio.CancelledError):
            await first
        assert not conn.connected
        with pytest.raises(ProtocolError, match="peer closed"):
            await conn.request("echo", {"i": 1}, timeout=2.0)
        await conn.close()
        await stop_serving(server, writers)

    run(scenario())


def test_connection_timeout_covers_a_blocked_drain():
    """The peer stopped reading, so ``drain()`` never returns: the
    link's watchdog covers the write as well as the read."""
    import socket

    async def scenario():
        async def deaf(reader, writer):
            try:
                await asyncio.sleep(3600)
            except asyncio.CancelledError:
                pass
            finally:
                writer.close()

        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.bind(("127.0.0.1", 0))
        server = await asyncio.start_server(deaf, sock=sock)
        conn = PersistentConnection("127.0.0.1", sock.getsockname()[1], timeout=0.2)
        start = time.monotonic()
        with pytest.raises(asyncio.TimeoutError):
            # the outer bound only keeps a regression from hanging the suite
            await asyncio.wait_for(conn.request("echo", {"blob": "x" * (8 << 20)}), 5.0)
        took = time.monotonic() - start
        assert not conn.connected
        await conn.close()
        server.close()
        await server.wait_closed()
        return took

    assert run(scenario()) < 1.0


def test_connect_timeout_is_a_timeout_and_cancellation_stays_cancellation():
    """``connect()`` has no transport to abort, so its timer cancels the
    connecting task's own await: that surfaces as ``TimeoutError`` and
    counts towards the reconnect cap, while a caller cancelled during a
    connect still sees ``CancelledError``. Neither creates a task."""
    import socket

    async def scenario():
        # A listener that never accepts, with its backlog already full:
        # Linux drops further SYNs, so a connect just hangs.
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(0)
        address = listener.getsockname()
        fillers = []
        for _ in range(4):
            filler = socket.socket()
            filler.setblocking(False)
            filler.connect_ex(address)
            fillers.append(filler)
        try:
            created = []
            _count_tasks(created)
            conn = PersistentConnection(*address, timeout=0.2, max_reconnect_attempts=1)
            start = time.monotonic()
            with pytest.raises(asyncio.TimeoutError):
                await conn.request("status")
            took = time.monotonic() - start
            with pytest.raises(EdgeUnreachableError):  # the timeout counted
                await conn.request("status")
            assert created == []

            other = PersistentConnection(*address, timeout=5.0)
            pending = asyncio.ensure_future(other.request("status"))
            await asyncio.sleep(0.05)
            pending.cancel()
            with pytest.raises(asyncio.CancelledError):
                await pending
            assert not other.connected
            return took
        finally:
            for sock in fillers + [listener]:
                sock.close()

    assert 0.19 <= run(scenario()) < 1.0


def test_client_closes_the_link_to_a_node_it_gives_up_on():
    """An injected drop fails a probe before it touches the socket; the
    link the client then forgets must not be left open behind it."""
    from types import SimpleNamespace

    from repro.runtime import LiveClient

    async def scenario():
        edge = LiveEdgeServer(
            "e1", profile_by_name("V1"), GeoPoint(44.98, -93.26), time_scale=0.01
        )
        await edge.start()
        client = LiveClient("u1", GeoPoint(44.97, -93.25), "127.0.0.1", 1)
        client.addresses["e1"] = (edge.host, edge.port)
        try:
            assert await client.probe("e1") is not None
            link = client.connections["e1"]
            assert link.connected
            dropped = SimpleNamespace(deliver=False, kind="drop", rule_id="r", extra_delay_ms=0.0)
            client.faults = SimpleNamespace(decide=lambda *args: dropped)
            assert await client.probe("e1") is None
            return "e1" in client.connections, link.connected
        finally:
            await client.close()
            await edge.stop()

    assert run(scenario()) == (False, False)


# ----------------------------------------------------------------------
# One deadline watchdog per link, not one timer per exchange
# ----------------------------------------------------------------------
def _record_timers(loop):
    """Every timer ``loop`` arms from now on, each handle once (its
    ``call_later`` goes through ``call_at``)."""
    armed = []

    def recording(arm):
        def wrapper(*args, **kwargs):
            handle = arm(*args, **kwargs)
            if all(handle is not seen for seen in armed):
                armed.append(handle)
            return handle

        return wrapper

    loop.call_at = recording(loop.call_at)
    loop.call_later = recording(loop.call_later)
    return armed


def _pending(loop, armed):
    """The recorded timers that are still due to fire."""
    now = loop.time()
    return [h for h in armed if not h.cancelled() and h.when() > now]


def test_500_exchanges_on_one_link_arm_at_most_two_timers():
    """The connect arms the watchdog; the exchanges after it, all within
    its timeout, arm none (one ``call_later`` each would be 500)."""

    async def scenario():
        server, writers, port = await _echo_server(lambda i: 0.0)
        armed = _record_timers(asyncio.get_running_loop())
        conn = PersistentConnection("127.0.0.1", port, timeout=5.0)
        for i in range(500):
            assert (await conn.request("echo", {"i": i}))["echo"] == i
        count = len(armed)
        await conn.close()
        await stop_serving(server, writers)
        return count

    assert run(scenario()) <= 2


def test_a_shorter_timeout_rearms_the_watchdog():
    """The watchdog is armed for 5 s; an exchange with ``timeout=0.05``
    still times out after about 0.05 s."""

    async def scenario():
        server, writers, port = await _echo_server(lambda i: 1.0 if i == 1 else 0.0)
        conn = PersistentConnection("127.0.0.1", port, timeout=5.0)
        await conn.request("echo", {"i": 0})
        start = time.monotonic()
        with pytest.raises(asyncio.TimeoutError):
            await asyncio.wait_for(conn.request("echo", {"i": 1}, timeout=0.05), 5.0)
        took = time.monotonic() - start
        assert (await conn.request("echo", {"i": 2}))["echo"] == 2
        await conn.close()
        await stop_serving(server, writers)
        return took

    assert 0.045 <= run(scenario()) < 0.3


def test_a_link_idle_past_its_timeout_times_out_on_schedule():
    """Used again after the watchdog fired on an idle link (it rests),
    or before it fires (it then follows the new deadline): either way
    the exchange times out one timeout after it started."""

    async def scenario():
        server, writers, port = await _echo_server(
            lambda i: 0.6 if i in (1, 3) else 0.0
        )
        conn = PersistentConnection("127.0.0.1", port, timeout=0.2)
        took = []
        for idle_s, (ok, silent) in ((0.35, (0, 1)), (0.1, (2, 3))):
            assert (await conn.request("echo", {"i": ok}))["echo"] == ok
            await asyncio.sleep(idle_s)
            start = time.monotonic()
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(conn.request("echo", {"i": silent}), 5.0)
            took.append(time.monotonic() - start)
        await conn.close()
        await stop_serving(server, writers)
        return took

    for took in run(scenario()):
        assert 0.19 <= took < 0.35


def test_drop_close_and_a_cancelled_exchange_leave_no_armed_timer():
    async def scenario():
        never = asyncio.Event()  # the peer holds reply 9 without a timer of its own
        writers = protocol.OpenConnections()

        async def dispatch(frame):
            i = frame["payload"]["i"]
            if i == 9:
                await never.wait()
            return {"echo": i}

        server = await asyncio.start_server(
            lambda r, w: serve_connection(r, w, dispatch, writers), "127.0.0.1", 0
        )
        port = server.sockets[0].getsockname()[1]
        loop = asyncio.get_running_loop()
        armed = _record_timers(loop)
        conn = PersistentConnection("127.0.0.1", port, timeout=5.0)
        left = []
        for end in ("drop", "close", "cancel"):
            assert (await conn.request("echo", {"i": 0}))["echo"] == 0
            assert _pending(loop, armed) != []  # the watchdog, resting
            if end == "drop":
                conn.drop()
            elif end == "close":
                await conn.close()
            else:
                pending = asyncio.ensure_future(conn.request("echo", {"i": 9}))
                await asyncio.sleep(0.05)
                pending.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await pending
            left.append(_pending(loop, armed))
        await conn.close()
        await stop_serving(server, writers)
        return left

    assert run(scenario()) == [[], [], []]
