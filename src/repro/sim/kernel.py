"""The discrete-event simulator kernel.

:class:`Simulator` is one loop over one heap. It owns the clock — a
plain ``now`` attribute every component reads and only the loop
advances — and the heap, whose entries are the
:class:`~repro.sim.events.Event` objects themselves:

- ``schedule(delay, fn)`` / ``schedule_at(time, fn)`` — one-shot events.
- ``every(period, fn, ...)`` — periodic timers, with optional jitter and
  start offset, returning a :class:`TimerHandle` for cancellation.
- ``run_until(t)`` / ``run()`` / ``step()`` — drive the loop.
- ``close()`` — drop everything pending, so an owner that is done with
  the simulator leaves no callback referring back to it.

Every time the kernel accepts is finite. A NaN compares false both ways,
so it would fire out of order or, as a timer, reschedule itself forever:
a non-finite start, time, delay, period or jitter draw is a
``ValueError`` at the call that supplies it.

Exceptions raised inside event callbacks propagate out of ``run*`` by
default (fail fast during development); a scenario may install an
``error_handler`` to log-and-continue instead, which mirrors how a real
deployment tolerates a single misbehaving node.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from time import perf_counter
from typing import Any, Callable, List, Optional

from repro.sim.events import Event

_INF = float("inf")


class TimerHandle:
    """A periodic timer created by ``Simulator.every``: its own state and
    its cancellation handle.

    The pending occurrence's callback is the handle itself (calling it
    fires the timer), so ``Simulator.close()`` finds every live timer in
    its heap and cancels it; a cancelled timer lets go of its callback,
    which is usually bound to the actor that holds the handle.
    """

    __slots__ = ("_cancelled", "_current_event", "_sim", "_callback", "_period",
                 "_jitter", "_label")

    def __init__(
        self,
        sim: "Simulator",
        callback: Callable[[], Any],
        period: float,
        jitter: Optional[Callable[[], float]],
        label: str,
    ) -> None:
        self._cancelled = False
        self._current_event: Optional[Event] = None
        self._sim = sim
        self._callback = callback
        self._period = period
        self._jitter = jitter
        self._label = label

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> None:
        """Stop the timer; any in-flight occurrence is cancelled too."""
        self._cancelled = True
        self._callback = self._jitter = None
        if self._current_event is not None:
            self._current_event.cancel()
            self._current_event = None

    def __call__(self) -> None:
        if self._cancelled:
            return
        self._callback()
        if self._cancelled:  # callback may have cancelled the timer
            return
        delay = self._period
        if self._jitter is not None:
            delay += self._jitter()
            if not 0.0 < delay < _INF:
                if not -_INF < delay <= 0.0:
                    raise ValueError(f"non-finite jitter draw: delay={delay}")
                delay = self._period
        sim = self._sim
        event = Event((sim.now + delay, next(sim._seq), self, self._label))
        heappush(sim._heap, event)
        self._current_event = event


class Simulator:
    """Deterministic discrete-event loop.

    Args:
        start: initial clock value (ms); finite and non-negative.
        error_handler: optional callable ``(exception, event) -> None``.
            When provided, exceptions from callbacks are passed to it and
            the loop continues; when absent, exceptions propagate.
    """

    def __init__(
        self,
        start: float = 0.0,
        error_handler: Optional[Callable[[BaseException, Event], None]] = None,
    ) -> None:
        if not 0.0 <= start < _INF:
            raise ValueError(f"clock must start at a finite time >= 0, got {start}")
        #: Current simulation time in ms.
        self.now = float(start)
        self._heap: List[Event] = []
        self._seq = count()
        self.error_handler = error_handler
        self.events_processed = 0
        #: Optional :class:`~repro.obs.profile.KernelProfiler`: every
        #: dispatch reports (label, handler wall ms, remaining heap depth).
        self.profiler: Any = None
        self._stop_requested = False

    def schedule(
        self, delay: float, callback: Callable[[], Any], label: str = ""
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` ms from now; a negative
        delay is clamped to zero (still through the heap, in order)."""
        now = self.now
        when = now + delay
        if not now <= when < _INF:
            if not -_INF < delay < 0.0:
                raise ValueError(f"non-finite event time: now={now}, delay={delay}")
            when = now
        event = Event((when, next(self._seq), callback, label))
        heappush(self._heap, event)
        return event

    def schedule_at(
        self, when: float, callback: Callable[[], Any], label: str = ""
    ) -> Event:
        """Schedule ``callback`` at absolute time ``when`` (ms).

        Raises:
            ValueError: if ``when`` is in the simulated past or not finite.
        """
        if not self.now <= when < _INF:
            if when < self.now:
                raise ValueError(f"cannot schedule in the past: now={self.now}, when={when}")
            raise ValueError(f"non-finite event time: when={when}")
        event = Event((when, next(self._seq), callback, label))
        heappush(self._heap, event)
        return event

    def every(
        self,
        period: float,
        callback: Callable[[], Any],
        *,
        start_after: Optional[float] = None,
        jitter: Optional[Callable[[], float]] = None,
        label: str = "",
    ) -> TimerHandle:
        """Run ``callback`` every ``period`` ms.

        Args:
            period: nominal period in ms; must be positive and finite.
            start_after: delay before the first firing (defaults to one
                period).
            jitter: optional zero-argument callable returning an additive
                perturbation (ms) applied independently to each firing —
                used to de-synchronize client probing loops the way real
                clients naturally drift. A draw that leaves the delay
                non-positive falls back to the nominal period.
            label: debug label attached to scheduled events.

        Returns:
            A :class:`TimerHandle`; call ``cancel()`` to stop the timer.
        """
        if not 0.0 < period < _INF:
            raise ValueError(f"period must be positive and finite, got {period}")
        handle = TimerHandle(self, callback, period, jitter, label)
        first_delay = period if start_after is None else start_after
        handle._current_event = self.schedule(first_delay, handle, label)
        return handle

    def step(self) -> bool:
        """Execute the single earliest event. Returns False if none is pending."""
        return self._loop(_INF, 1) == 1

    def run_until(self, until: float) -> None:
        """Run events with ``time <= until``, then set the clock to ``until``
        (unless ``stop()`` was called). Events exactly at ``until`` run."""
        if not -_INF < until < _INF:
            raise ValueError(f"run_until needs a finite time, got {until}")
        self._loop(until, -1)
        if self.now < until and not self._stop_requested:
            self.now = float(until)

    def run(self, max_events: Optional[int] = None) -> None:
        """Run until the heap drains (or ``max_events`` have fired)."""
        self._loop(_INF, -1 if max_events is None else max(max_events, 0))

    def stop(self) -> None:
        """Request the current ``run``/``run_until`` to stop after this event."""
        self._stop_requested = True

    def close(self) -> None:
        """Drop every pending event unfired, one-shot and periodic alike.

        The heap is the one place a pending callback, the actor it runs
        and the simulator that actor schedules on meet; emptying it
        leaves them nothing that refers back, so reference counting
        frees them. The clock and ``events_processed`` stay as they
        are; closing again is a no-op.
        """
        heap = self._heap
        for event in heap:
            callback = event[2]
            if type(callback) is TimerHandle:
                callback.cancel()
            event[2] = None
        heap.clear()

    def _loop(self, until: float, budget: int) -> int:
        """Fire pending events with ``time <= until`` in (time, seq) order,
        at most ``budget`` of them (negative: no limit), until the heap
        drains or ``stop()`` is called. Returns how many fired."""
        self._stop_requested = False
        heap = self._heap
        now = self.now
        fired = self.events_processed
        while heap and budget and not self._stop_requested:
            if heap[0][0] > until:
                break
            event = heappop(heap)
            callback = event[2]
            if callback is None:  # cancelled
                continue
            time = event[0]
            if time < now:
                raise ValueError(f"cannot move clock backwards: now={now}, requested={time}")
            self.now = now = time
            self.events_processed += 1
            budget -= 1
            profiler = self.profiler
            start = 0.0 if profiler is None else perf_counter()
            try:
                callback()
            except Exception as exc:  # noqa: BLE001 - kernel boundary
                if self.error_handler is None:
                    raise
                self.error_handler(exc, event)
            finally:
                if profiler is not None:
                    ms = (perf_counter() - start) * 1000.0
                    profiler.record(event[3], ms, len(heap))
        return self.events_processed - fired

    def __repr__(self) -> str:
        return (f"Simulator(now={self.now:.3f}ms, pending={len(self._heap)}, "
                f"processed={self.events_processed})")
