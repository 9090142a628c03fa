"""The tracer: subscriber fan-out + bounded ring buffer + optional sink.

A :class:`Tracer` has two layers with different cost models:

- **Reduction (always on).** Subscribers — notably
  :meth:`repro.metrics.collector.MetricsCollector.on_event` — receive
  every emitted event. This is the redesigned metrics-reporting path:
  components emit events; reducers fold them into whatever aggregate
  they maintain. It runs even when capture is disabled, so metrics work
  identically whether or not anyone is tracing.
- **Capture (gated by ``enabled``).** The bounded ring buffer and the
  optional sink record the events themselves. Emission sites guard
  *detail* events (phase spans, probe answers, cache hits...) with
  ``if tracer.enabled:`` so a disabled tracer costs one truthiness
  check and constructs nothing — the near-zero-when-disabled argument
  quantified by ``benchmarks/perf/bench_trace_overhead.py``.

Timestamps: simulated components stamp events with ``sim.now``; live
components call :meth:`Tracer.now`, wall-clock milliseconds since the
tracer's epoch, so both backends produce small monotonically increasing
``t_ms`` values with one schema.
"""

from __future__ import annotations

import json
import time
from collections import deque
from io import TextIOWrapper
from pathlib import Path
from typing import Callable, Deque, List, Optional, Union

from repro.obs.events import TraceEvent

__all__ = ["Tracer", "JsonlSink", "ListSink", "NullSink", "as_sink"]


class JsonlSink:
    """Append events to a JSONL file, one wire object per line.

    The file is opened lazily on the first write and buffered; call
    :meth:`close` (or use the tracer's :meth:`Tracer.close`) to flush.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._fh: Optional[TextIOWrapper] = None
        self.events_written = 0

    def write(self, event: TraceEvent) -> None:
        if self._fh is None:
            self._fh = self.path.open("w", encoding="utf-8")
        self._fh.write(json.dumps(event.to_dict()) + "\n")
        self.events_written += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __repr__(self) -> str:
        return f"JsonlSink({self.path}, written={self.events_written})"


class ListSink:
    """Collect events into a plain list (tests, programmatic analysis)."""

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def write(self, event: TraceEvent) -> None:
        self.events.append(event)

    def close(self) -> None:  # pragma: no cover - nothing to release
        pass


class NullSink:
    """Swallow events; exists to measure pure sink-dispatch overhead."""

    events_written = 0

    def write(self, event: TraceEvent) -> None:
        self.events_written += 1

    def close(self) -> None:  # pragma: no cover - nothing to release
        pass


def as_sink(sink: Union[None, str, Path, JsonlSink, ListSink, NullSink]):
    """Coerce a path-like into a :class:`JsonlSink`; pass sinks through."""
    if sink is None or hasattr(sink, "write"):
        return sink
    return JsonlSink(sink)  # type: ignore[arg-type]


class Tracer:
    """Typed trace-event bus shared by one running system.

    Args:
        enabled: capture events into the ring buffer / sink. Subscribers
            are notified regardless (see module docstring).
        capacity: ring-buffer bound; the oldest events fall off first,
            so a long-running system never grows without bound while the
            sink (if any) still sees everything.
        sink: optional sink object (``write(event)``/``close()``) or a
            path, coerced to a :class:`JsonlSink`.
    """

    __slots__ = ("enabled", "_ring", "_sink", "_subscribers", "_epoch", "profiler")

    def __init__(
        self,
        *,
        enabled: bool = True,
        capacity: int = 65536,
        sink: Union[None, str, Path, JsonlSink, ListSink, NullSink] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity}")
        self.enabled = enabled
        self._ring: Deque[TraceEvent] = deque(maxlen=capacity)
        self._sink = as_sink(sink)
        self._subscribers: List[Callable[[TraceEvent], None]] = []
        self._epoch = time.monotonic()
        #: Optional :class:`~repro.obs.profile.KernelProfiler` installed
        #: on the simulator by ``ScenarioBuilder.observe(profile_kernel=
        #: True)``; carried here so analyzers find it next to the trace.
        self.profiler = None

    # ------------------------------------------------------------------
    def __bool__(self) -> bool:
        """Truthiness == capture enabled, so emission sites can guard
        detail events with a bare ``if tracer:``."""
        return self.enabled

    @property
    def listening(self) -> bool:
        """An event emitted now would reach a reducer or the capture ring."""
        return self.enabled or bool(self._subscribers)

    def now(self) -> float:
        """Wall-clock ms since this tracer's creation (live runtime)."""
        return (time.monotonic() - self._epoch) * 1000.0

    # ------------------------------------------------------------------
    def subscribe(self, fn: Callable[[TraceEvent], None]) -> None:
        """Register an always-on reducer; called once per emitted event."""
        self._subscribers.append(fn)

    def emit(self, event: TraceEvent) -> None:
        """Publish one event: reducers always, capture when enabled."""
        for fn in self._subscribers:
            fn(event)
        if not self.enabled:
            return
        self._ring.append(event)
        if self._sink is not None:
            self._sink.write(event)

    # ------------------------------------------------------------------
    def events(self, *types: str) -> List[TraceEvent]:
        """Captured events, optionally filtered to the given type tags."""
        if not types:
            return list(self._ring)
        wanted = set(types)
        return [e for e in self._ring if e.type in wanted]

    def __len__(self) -> int:
        return len(self._ring)

    def clear(self) -> None:
        self._ring.clear()

    def close(self) -> None:
        """Flush and close the sink (the tracer itself stays usable)."""
        if self._sink is not None:
            self._sink.close()

    # ------------------------------------------------------------------
    @classmethod
    def disabled(cls) -> "Tracer":
        """A capture-disabled tracer (reduction still runs) — the
        default every :class:`~repro.core.system.EdgeSystem` gets."""
        return cls(enabled=False, capacity=1)

    def __repr__(self) -> str:
        state = "on" if self.enabled else "off"
        return (
            f"Tracer({state}, captured={len(self._ring)}, "
            f"subscribers={len(self._subscribers)}, sink={self._sink!r})"
        )
