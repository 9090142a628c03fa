"""A scheduled callback that is its own heap entry.

An :class:`Event` is a ``list`` ``[time, seq, callback, label]``, and the
kernel's heap holds the events themselves: ``heapq`` orders them by
``(time, seq)`` in C, and scheduling a callback allocates one object.
``seq`` is unique and increasing, so two events at the same instant fire
in the order they were scheduled (deterministic across runs and
platforms), and a comparison never reaches the callback.

Cancellation is lazy: ``cancel()`` clears the callback slot and the
kernel skips the entry when it pops it — the "lazy deletion" of
``sched`` and asyncio, with no O(n) heap surgery. Clearing the slot drops
the closure at once, even while the entry is still in the heap.
"""

from __future__ import annotations

from operator import itemgetter


class Event(list):  # type: ignore[type-arg]
    """``[time, seq, callback, label]``, read-only by name: ``time`` (ms),
    ``seq`` (scheduling order), ``callback`` (None once cancelled),
    ``label`` (reported to the kernel profiler) and ``cancelled``."""

    __slots__ = ()

    time = property(itemgetter(0))
    seq = property(itemgetter(1))
    callback = property(itemgetter(2))
    label = property(itemgetter(3))

    @property
    def cancelled(self) -> bool:
        return self[2] is None

    def cancel(self) -> None:
        """Clear the callback; the kernel skips this entry when it pops it."""
        self[2] = None

    def __repr__(self) -> str:
        state = "cancelled" if self[2] is None else "pending"
        label = f" {self[3]!r}" if self[3] else ""
        return f"Event(t={self[0]:.3f}, seq={self[1]}, {state}{label})"
