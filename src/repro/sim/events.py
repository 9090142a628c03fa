"""Timestamped events and the stable event queue.

The queue is a binary heap of ``(time, sequence, event)`` tuples. The sequence
number makes ordering *stable*: two events scheduled for the same instant
fire in the order they were scheduled, which keeps simulations
deterministic across runs and platforms.

Events support O(1) logical cancellation: ``cancel()`` marks the event,
and the kernel skips cancelled events when popping. This is the standard
"lazy deletion" approach used by ``sched``/asyncio and avoids O(n) heap
surgery.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple


class Event:
    """A single scheduled callback.

    Attributes:
        time: absolute simulation time (ms) at which the event fires.
        seq: monotonically increasing tie-breaker assigned by the queue.
        callback: zero-argument callable invoked by the kernel.
        cancelled: True once :meth:`cancel` has been called.
    """

    __slots__ = ("time", "seq", "callback", "cancelled", "label")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[[], Any],
        label: str = "",
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.label = label

    def cancel(self) -> None:
        """Mark this event as cancelled; the kernel will skip it."""
        self.cancelled = True
        # Drop the reference so cancelled closures (and anything they
        # capture) can be garbage collected even while still heap-resident.
        self.callback = _noop

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        label = f" {self.label!r}" if self.label else ""
        return f"Event(t={self.time:.3f}, seq={self.seq}, {state}{label})"


def _noop() -> None:
    return None


class EventPool:
    """A free-list of :class:`Event` objects for allocation-heavy loops.

    The metro kernel's per-client fallback path schedules one event per
    frame — tens of millions of short-lived ``Event`` allocations per
    simulated hour. Recycling fired events through a bounded free-list
    keeps that path off the allocator. Usage contract: events obtained
    from :meth:`acquire` must be handed back via :meth:`release` only
    after they have fired (or been cancelled *and* popped) — a pooled
    event still sitting in a heap must never be reused.
    """

    __slots__ = ("_free", "_max_size", "acquired", "recycled")

    def __init__(self, max_size: int = 4096) -> None:
        if max_size < 0:
            raise ValueError(f"max_size must be >= 0, got {max_size}")
        self._free: List[Event] = []
        self._max_size = max_size
        #: Total acquire() calls (pool hits + fresh allocations).
        self.acquired = 0
        #: acquire() calls served from the free-list.
        self.recycled = 0

    def acquire(
        self,
        time: float,
        seq: int,
        callback: Callable[[], Any],
        label: str = "",
    ) -> Event:
        """A reinitialised pooled event, or a fresh one if the pool is dry."""
        self.acquired += 1
        if self._free:
            self.recycled += 1
            event = self._free.pop()
            event.time = time
            event.seq = seq
            event.callback = callback
            event.cancelled = False
            event.label = label
            return event
        return Event(time, seq, callback, label)

    def release(self, event: Event) -> None:
        """Return a fired event to the free-list (drops when full)."""
        if len(self._free) < self._max_size:
            event.callback = _noop  # break closure reference cycles early
            self._free.append(event)

    def __len__(self) -> int:
        return len(self._free)


class EventQueue:
    """A stable min-heap of :class:`Event` objects, kept as ``(time, seq,
    event)`` tuples: ``seq`` is unique, so ``heapq`` compares in C and
    never calls ``Event.__lt__``."""

    __slots__ = ("_heap", "_counter")

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Event]] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, time: float, callback: Callable[[], Any], label: str = "") -> Event:
        """Schedule ``callback`` at absolute time ``time`` and return the event."""
        seq = next(self._counter)
        event = Event(time, seq, callback, label)
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def push_pooled(
        self,
        pool: EventPool,
        time: float,
        callback: Callable[[], Any],
        label: str = "",
    ) -> Event:
        """Schedule via ``pool.acquire`` instead of allocating a new event."""
        seq = next(self._counter)
        event = pool.acquire(time, seq, callback, label)
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def pop(self) -> Optional[Event]:
        """Pop the earliest non-cancelled event, or None if the queue is empty.

        Cancelled events encountered on the way are discarded silently.
        """
        while self._heap:
            event = heapq.heappop(self._heap)[2]
            if not event.cancelled:
                return event
        return None

    def pop_until(self, limit: float) -> Optional[Event]:
        """Pop the earliest pending event with ``time <= limit``, or None.

        Equivalent to ``peek_time()`` + ``pop()`` but walks past each
        cancelled entry once instead of twice — this is the kernel's
        ``run_until`` hot path.
        """
        heap = self._heap
        while heap:
            if heap[0][0] > limit:
                return None
            event = heapq.heappop(heap)[2]
            if not event.cancelled:
                return event
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the earliest pending event, or None.

        Skips over (and permanently discards) cancelled events at the top
        of the heap.
        """
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
        if not self._heap:
            return None
        return self._heap[0][0]

    def clear(self) -> None:
        self._heap.clear()

    def pending(self) -> Tuple[Event, ...]:
        """Snapshot of non-cancelled events in fire order (for debugging)."""
        return tuple(e for _, _, e in sorted(self._heap) if not e.cancelled)
