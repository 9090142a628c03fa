"""Discrete-event simulation kernel.

This package provides the deterministic, seedable simulation substrate on
which the edge-selection system runs. It is intentionally small and
dependency-free:

- :class:`~repro.sim.kernel.Simulator` — one loop over one heap: it owns
  the clock (``sim.now``) and the heap, and offers ``schedule()``,
  ``run_until()``, ``run()``, periodic timers and cancellation handles.
- :class:`~repro.sim.events.Event` — a scheduled callback that is its own
  heap entry, ``[time, seq, callback, label]``, stable at equal times.
- :class:`~repro.sim.random.RandomStreams` — named, independently seeded
  random streams so adding a new consumer never perturbs existing ones.

All simulation times are finite floats in **milliseconds** — the natural
unit of the paper, whose latencies range from a few ms to a few hundred
ms.
"""

from repro.sim.events import Event
from repro.sim.kernel import Simulator, TimerHandle
from repro.sim.random import RandomStreams

__all__ = [
    "Event",
    "Simulator",
    "TimerHandle",
    "RandomStreams",
]
