"""Wire protocol for the live runtime: newline-delimited JSON frames.

Every frame is one JSON object on one line::

    {"op": "<operation>", "payload": {...}}\\n

and every request gets exactly one response frame. Operations mirror
the simulation's method calls one-to-one (``discover``, ``heartbeat``,
``rtt_probe``, ``process_probe``, ``join``, ``unexpected_join``,
``leave``, ``frame``, ``status``). Dataclass payloads go through
:func:`repro.messages.to_wire` / ``from_wire``.

There is one client-side exchange (:meth:`PersistentConnection.request`)
and one server-side loop (:func:`serve_connection`). :func:`request` is
that exchange over a connection of its own or, given a
:class:`ConnectionPool`, over a kept-alive link; no connection outlives
the object that the caller created to hold it.

An exchange is a write, a read and one timer handle on the caller's own
task; no task is created per request. A timeout means the socket is
dead: the timer aborts the transport, which ends the pending read.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Coroutine, Dict, Optional, Set, Tuple

#: Maximum accepted frame size — prevents a garbage peer from ballooning
#: memory with an unterminated line. Every stream's reader ``limit``.
MAX_FRAME_BYTES = 1 << 20


class ProtocolError(Exception):
    """Malformed frame or unexpected operation."""


class EdgeUnreachableError(ProtocolError):
    """A peer is currently unreachable and the caller should fail fast.

    Raised instead of a socket error when a
    :class:`PersistentConnection` exhausts its reconnect attempts, or
    when its :class:`CircuitBreaker` is open. Subclasses
    :class:`ProtocolError`, so every existing ``except`` that treats a
    dead peer as "just a dead volunteer" keeps working — the point is
    that it arrives in microseconds, not after another 5 s timeout.
    """


def encode_frame(op: str, payload: Optional[Dict[str, Any]] = None) -> bytes:
    """Encode one protocol frame."""
    return (json.dumps({"op": op, "payload": payload or {}}) + "\n").encode("utf-8")


def decode_frame(line: bytes) -> Dict[str, Any]:
    """Decode one protocol frame.

    Raises:
        ProtocolError: on malformed JSON, a missing ``op`` or a non-object payload.
    """
    try:
        data = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed frame: {line[:80]!r}") from exc
    if not isinstance(data, dict) or "op" not in data:
        raise ProtocolError(f"frame missing op: {data!r}")
    if type(data.setdefault("payload", {})) is not dict:
        raise ProtocolError(f"frame payload is not an object: {line[:80]!r}")
    return data


async def read_frame(reader: asyncio.StreamReader) -> Optional[Dict[str, Any]]:
    """Read one frame; None on clean EOF.

    Raises:
        ProtocolError: on malformed frames and on lines past the
            reader's limit (``MAX_FRAME_BYTES`` on the runtime's streams).
    """
    try:
        line = await reader.readline()
    except (ConnectionResetError, BrokenPipeError):
        return None
    except ValueError as exc:
        raise ProtocolError(f"frame too large: {exc}") from exc
    if not line:
        return None
    return decode_frame(line)


async def request(
    host: str,
    port: int,
    op: str,
    payload: Optional[Dict[str, Any]] = None,
    timeout: float = 5.0,
    *,
    pool: Optional["ConnectionPool"] = None,
) -> Dict[str, Any]:
    """One request/response exchange: over a connection of its own, or
    over ``pool``'s standing link to the peer (connected on first use;
    the pool's creator closes it).

    Raises:
        ProtocolError / OSError / asyncio.TimeoutError on failure — the
        caller decides whether a dead peer is an error or just a dead
        volunteer node. A failed exchange always closes its socket.
    """
    link = PersistentConnection(host, port) if pool is None else pool.link(host, port)
    try:
        return await link.request(op, payload, timeout)
    finally:
        # Also true for a link its pool dropped (or closed) mid-exchange.
        if pool is None or not pool.owns(link):
            await link.close()


class OpenConnections(Set[asyncio.StreamWriter]):
    """The connections one listener is serving. :func:`stop_serving` sets
    ``stopped`` (a restart clears it): a connection accepted while it ran
    reaches :func:`serve_connection` after the sweep and must hang up."""

    stopped = False


async def serve_connection(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    dispatch: Callable[[Dict[str, Any]], Awaitable[Optional[Dict[str, Any]]]],
    open_writers: OpenConnections,
) -> None:
    """Serve one connection: read a frame, ``dispatch`` it, write the
    reply; until EOF, or a ``None`` reply, which hangs up without
    answering. The writer sits in ``open_writers`` meanwhile so that
    :func:`stop_serving` can sever it.
    """
    open_writers.add(writer)
    try:
        while not open_writers.stopped:
            frame = await read_frame(reader)
            if frame is None:
                break
            reply = await dispatch(frame)
            if reply is None:
                break
            writer.write(encode_frame("reply", reply))
            await writer.drain()
    except (ProtocolError, ConnectionResetError, asyncio.CancelledError):
        # CancelledError: server teardown cancels in-flight handlers;
        # ending the task cleanly avoids spurious loop-callback logging.
        pass
    finally:
        open_writers.discard(writer)
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            # teardown raced the hang-up: the socket is gone either way
            pass


async def stop_serving(
    server: Optional[asyncio.AbstractServer],
    open_writers: OpenConnections,
) -> None:
    """Hard stop: sever the open connections, then stop listening. A
    stopped server would otherwise keep answering on them (before 3.12),
    or ``Server.wait_closed()`` would wait for them (from 3.12).

    Accepting stops before the server closes: asyncio builds an accepted
    connection's transport a loop step after taking it from the
    backlog, and a closed server refuses it half-built, leaking its
    socket. Two steps let every such connection attach; it then hangs
    up on seeing ``stopped``."""
    open_writers.stopped = True
    for writer in list(open_writers):
        writer.close()
    open_writers.clear()
    if server is not None:
        loop = asyncio.get_running_loop()
        for sock in server.sockets:
            loop.remove_reader(sock.fileno())
        await asyncio.sleep(0)
        await asyncio.sleep(0)
        server.close()
        await server.wait_closed()


# ----------------------------------------------------------------------
# Retry with a total-latency budget
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry: capped attempts AND a total wall-clock budget.

    Backoff is *decorrelated jitter*: each sleep is drawn uniformly
    from ``[base_delay_s, 3 x previous_sleep]``, capped at
    ``max_delay_s`` — it spreads a thundering herd like full jitter but
    still grows geometrically in expectation. A retry is attempted only
    if the budget has room for its backoff sleep; whatever error ended
    the last attempt propagates once either bound trips.
    """

    max_attempts: int = 3
    budget_s: float = 2.0
    base_delay_s: float = 0.05
    max_delay_s: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1: {self.max_attempts}")
        if self.budget_s <= 0 or self.base_delay_s <= 0 or self.max_delay_s <= 0:
            raise ValueError("budget and delays must be positive")

    def next_delay(self, previous_s: float, rng: random.Random) -> float:
        return min(
            self.max_delay_s, rng.uniform(self.base_delay_s, max(previous_s, self.base_delay_s) * 3.0)
        )


async def call_with_retry(
    attempt: Callable[[], Awaitable[Dict[str, Any]]],
    policy: RetryPolicy,
    *,
    rng: Optional[random.Random] = None,
    on_retry: Optional[Callable[[int, float], None]] = None,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], Awaitable[None]] = asyncio.sleep,
) -> Dict[str, Any]:
    """Run ``attempt`` under ``policy``; retries on transport errors.

    ``on_retry(attempt_number, delay_s)`` fires before each backoff
    sleep — the live client uses it to emit
    :class:`~repro.obs.events.RetryScheduled` trace events.
    :class:`EdgeUnreachableError` is **not** retried: the breaker (or
    reconnect cap) has already decided the peer is down, and hammering
    it would defeat the fail-fast.
    """
    rng = rng if rng is not None else random.Random()
    deadline = clock() + policy.budget_s
    delay = policy.base_delay_s
    attempts = 0
    while True:
        attempts += 1
        try:
            return await attempt()
        except EdgeUnreachableError:
            raise
        except (OSError, ProtocolError, asyncio.TimeoutError):
            if attempts >= policy.max_attempts:
                raise
            delay = policy.next_delay(delay, rng)
            if clock() + delay >= deadline:
                raise
            if on_retry is not None:
                on_retry(attempts, delay)
            await sleep(delay)


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
class CircuitBreaker:
    """Per-endpoint closed → open → half-open breaker.

    - **closed**: requests flow; ``failure_threshold`` *consecutive*
      failures trip it open.
    - **open**: :meth:`allow` is False — callers fail fast with
      :class:`EdgeUnreachableError` instead of paying another timeout.
    - **half-open**: after ``reset_timeout_s`` one trial request is let
      through; success closes the breaker, failure re-opens it (and
      restarts the reset clock).
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        reset_timeout_s: float = 2.0,
        *,
        clock: Callable[[], float] = time.monotonic,
        on_transition: Optional[Callable[[str, str], None]] = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(f"failure_threshold must be >= 1: {failure_threshold}")
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self._clock = clock
        self.on_transition = on_transition
        self._state = "closed"
        self._failures = 0
        self._opened_at = 0.0
        self._trial_in_flight = False

    @property
    def state(self) -> str:
        """Current state, advancing open → half-open on read."""
        if (
            self._state == "open"
            and self._clock() - self._opened_at >= self.reset_timeout_s
        ):
            self._set_state("half_open")
        return self._state

    def _set_state(self, new: str) -> None:
        old = self._state
        if old == new:
            return
        self._state = new
        if new != "open":
            self._trial_in_flight = False
        if self.on_transition is not None:
            self.on_transition(old, new)

    def allow(self) -> bool:
        """May a request proceed right now?

        In half-open state only one trial request is admitted at a time;
        concurrent callers keep failing fast until it resolves.
        """
        state = self.state
        if state == "closed":
            return True
        if state == "half_open" and not self._trial_in_flight:
            self._trial_in_flight = True
            return True
        return False

    def record_success(self) -> None:
        self._failures = 0
        self._set_state("closed")

    def record_failure(self) -> None:
        self._trial_in_flight = False
        if self._state == "half_open":
            self._opened_at = self._clock()
            self._set_state("open")
            return
        self._failures += 1
        if self._failures >= self.failure_threshold and self._state == "closed":
            self._opened_at = self._clock()
            self._set_state("open")


class PersistentConnection:
    """A kept-alive request/response channel to one peer.

    This is what "proactively established connections" are at the
    transport level: the TCP handshake is paid once, and a failover
    request rides an already-open socket.

    Concurrent callers share the link one exchange at a time, and an
    exchange that fails in any way (timeout, EOF, cancellation) closes
    the socket, so a reply is only ever read by the request it answers;
    the next request reconnects.

    Robustness (opt-in, both default-compatible):

    - ``max_reconnect_attempts`` bounds *consecutive* failed
      (re)connects; once exhausted, further requests raise
      :class:`EdgeUnreachableError` immediately instead of paying a
      connect timeout each time. Any successful connect resets the
      count.
    - an attached :class:`CircuitBreaker` is consulted before every
      request and fed every outcome, so a dead peer costs
      ``failure_threshold`` timeouts total — not one per request.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 5.0,
        *,
        max_reconnect_attempts: int = 3,
        breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        if max_reconnect_attempts < 1:
            raise ValueError(
                f"max_reconnect_attempts must be >= 1: {max_reconnect_attempts}"
            )
        self.host = host
        self.port = port
        self.timeout = timeout
        self.max_reconnect_attempts = max_reconnect_attempts
        self.breaker = breaker
        self._connect_failures = 0
        self._expired = False  # set by the current exchange's timer
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._lock = asyncio.Lock()

    @property
    def connected(self) -> bool:
        return self._writer is not None and not self._writer.is_closing()

    def _expire(self, kill: Callable[[], object]) -> None:
        """Timer callback: ``kill`` ends the caller's pending await; the
        flag turns the failure that follows into a timeout."""
        self._expired = True
        kill()

    async def connect(self, timeout: Optional[float] = None) -> None:
        """Open the socket (for :meth:`request`, under its lock). There
        is no transport to abort yet, so the timer cancels this task's
        own await; a cancellation nobody else asked for is the timeout."""
        task = asyncio.current_task()
        assert task is not None
        self._expired = False
        handle = asyncio.get_running_loop().call_later(
            self.timeout if timeout is None else timeout, self._expire, task.cancel
        )
        try:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port, limit=MAX_FRAME_BYTES
            )
        except asyncio.CancelledError:
            # 3.11+ counts cancel requests: what is left after taking ours
            # back is the caller's. 3.10 cannot tell when both land in one
            # loop iteration, and reports the timeout.
            if not self._expired or (hasattr(task, "uncancel") and task.uncancel() > 0):
                raise
            self._connect_failures += 1
            raise asyncio.TimeoutError(f"connect to {self.host}:{self.port}") from None
        except OSError:
            self._connect_failures += 1
            raise
        finally:
            handle.cancel()
        self._connect_failures = 0

    async def request(
        self,
        op: str,
        payload: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        """One exchange on the standing connection (``timeout``
        overrides the connection's own for this exchange): a write, a
        read and one timer handle over both, on the caller's task.

        Raises:
            EdgeUnreachableError: breaker open or reconnect cap hit —
                the peer is considered down; fail fast.
            ProtocolError: when the peer vanished mid-exchange.
            asyncio.TimeoutError: no reply in time — the timer aborted
                the transport, and the reset/EOF that ended the pending
                ``drain()``/``readline()`` is reported as this.
        """
        if self.breaker is not None and not self.breaker.allow():
            raise EdgeUnreachableError(
                f"{self.host}:{self.port} breaker open, refusing {op!r}"
            )
        if timeout is None:
            timeout = self.timeout
        loop = asyncio.get_running_loop()
        try:
            async with self._lock:
                if not self.connected:
                    if self._connect_failures >= self.max_reconnect_attempts:
                        raise EdgeUnreachableError(
                            f"{self.host}:{self.port} unreachable after "
                            f"{self._connect_failures} connect attempts"
                        )
                    await self.connect(timeout)
                assert self._writer is not None and self._reader is not None
                self._expired = False
                abort = self._writer.transport.abort
                handle = loop.call_later(timeout, self._expire, abort)
                try:
                    self._writer.write(encode_frame(op, payload))
                    await self._writer.drain()
                    reply = await read_frame(self._reader)
                    if reply is None:
                        raise ProtocolError(f"peer closed connection during {op!r}")
                except BaseException as exc:
                    self.drop()
                    if self._expired and isinstance(exc, (OSError, ProtocolError)):
                        raise asyncio.TimeoutError(f"{op!r} timed out") from exc
                    raise
                finally:
                    handle.cancel()
        except (OSError, ProtocolError, asyncio.TimeoutError):
            if self.breaker is not None:
                self.breaker.record_failure()
            raise
        if self.breaker is not None:
            self.breaker.record_success()
        return reply["payload"]

    def drop(self) -> Optional[asyncio.StreamWriter]:
        """Close the socket now, without waiting for the close to
        complete; the next request reconnects."""
        writer, self._writer, self._reader = self._writer, None, None
        if writer is not None:
            writer.close()
        return writer

    async def close(self) -> None:
        writer = self.drop()
        if writer is not None:
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass


class ConnectionPool:
    """Standing links to peers, one per ``(host, port)``, for
    :func:`request`. Whoever creates the pool closes it."""

    def __init__(self) -> None:
        self._links: Dict[Tuple[str, int], PersistentConnection] = {}
        self._closed = False

    def link(self, host: str, port: int) -> PersistentConnection:
        """The standing link to a peer, created unconnected. A closed
        pool keeps nothing: the caller closes what it gets (:func:`request`
        does)."""
        link = self._links.get((host, port))
        if link is None:
            link = PersistentConnection(host, port)
            if not self._closed:
                self._links[(host, port)] = link
        return link

    def owns(self, link: PersistentConnection) -> bool:
        return self._links.get((link.host, link.port)) is link

    def discard(self, host: str, port: int) -> None:
        """Drop the link to a peer; the next exchange gets a fresh one."""
        link = self._links.pop((host, port), None)
        if link is not None:
            link.drop()

    async def close(self) -> None:
        self._closed = True
        links, self._links = list(self._links.values()), {}
        for link in links:
            await link.close()


class Background:
    """The tasks and timers one live driver started: tracked, so that
    :meth:`cancel` ends them all and :meth:`settled` can wait until no
    exchange is in flight."""

    def __init__(self) -> None:
        self.tasks: Set["asyncio.Task[None]"] = set()
        self.timers: Set[asyncio.TimerHandle] = set()

    def spawn(self, coro: Coroutine[Any, Any, None]) -> None:
        task = asyncio.ensure_future(coro)
        self.tasks.add(task)
        task.add_done_callback(self.tasks.discard)

    def call_later(self, delay_s: float, callback: Callable[[], None]) -> None:
        def fire() -> None:
            self.timers.discard(handle)
            callback()

        handle = asyncio.get_running_loop().call_later(delay_s, fire)
        self.timers.add(handle)

    async def settled(self) -> None:
        """Return once no task is in flight (a task may spawn the next);
        raise an exception a task raised. Cancelling the wait leaves the
        tasks running: an exchange is never cut off half-fed."""
        while self.tasks:
            done, _ = await asyncio.wait(self.tasks)
            for task in done:
                error = None if task.cancelled() else task.exception()
                if error is not None:
                    raise error

    def cancel_timers(self) -> None:
        for handle in self.timers:
            handle.cancel()
        self.timers.clear()

    async def cancel(self) -> None:
        """Cancel every pending timer and task, and wait for the tasks."""
        self.cancel_timers()
        tasks = list(self.tasks)
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
