"""Unified observability: trace events, phase spans, kernel profiling.

``repro.obs`` is the structured trace-event subsystem shared by both
execution backends — the discrete-event simulator (``repro.core`` /
``repro.sim``) and the live asyncio runtime (``repro.runtime``). Every
lifecycle step of a user (discovery → probe → join → serve → failover)
and every node-side trigger (test workload, cache refresh, heartbeat
trouble) is emitted as a typed :class:`~repro.obs.events.TraceEvent`
with one schema, so a simulated run and a loopback live run produce
byte-compatible JSONL traces analyzable by the same tools.

Layers:

- :mod:`repro.obs.events` — the typed event catalog and wire schema.
- :mod:`repro.obs.tracer` — :class:`Tracer` (ring buffer + optional
  JSONL sink + always-on subscriber fan-out, near-zero cost when
  capture is disabled) and the sink implementations.
- :mod:`repro.obs.analyze` — :class:`TraceAnalyzer`: per-user
  timelines, latency-phase breakdowns, failover-gap histograms. Verdicts
  over a trace (event order, phase reconciliation, the recovery
  invariants) are :mod:`repro.verify`'s.
- :mod:`repro.obs.profile` — :class:`KernelProfiler`, the simulator
  event-loop profiling hook (per-handler time, queue depth).
- :mod:`repro.obs.scenarios` — seeded demo scenarios (sim and live
  loopback) behind the ``repro trace`` CLI subcommand.

The metrics-reporting API is built on top: components *emit* trace
events and :class:`~repro.metrics.collector.MetricsCollector`
subscribes and reduces them — nothing mutates the collector directly.
"""

from repro.obs import events
from repro.obs.events import *  # noqa: F401,F403 -- the catalog is events.__all__
from repro.obs.tracer import JsonlSink, ListSink, NullSink, Tracer
from repro.obs.analyze import TraceAnalyzer, load_trace
from repro.obs.profile import KernelProfiler

__all__ = [
    "Tracer",
    "JsonlSink",
    "ListSink",
    "NullSink",
    "TraceAnalyzer",
    "KernelProfiler",
    "load_trace",
    *events.__all__,
]
