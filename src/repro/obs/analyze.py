"""Trace reductions: timelines, phase breakdowns, failover gaps.

:class:`TraceAnalyzer` consumes a sequence of trace events — live
:class:`~repro.obs.events.TraceEvent` objects from a tracer's ring
buffer or plain dicts loaded from a JSONL sink — and produces the
latency-accounting views the paper's evaluation is built on:

- **per-user timelines** — the ordered discovery → probe → join →
  serve → failover story of a single user;
- **latency-phase breakdowns** — how much of each user's end-to-end
  latency was network RTT vs. queueing vs. processing;
- **failover-gap histograms** — the time between a node failure and
  the affected user serving frames again.

These are views, not verdicts: that the three phases sum to the recorded
latency, and that events come in causal order, are
:mod:`repro.verify` invariants (``PhaseReconciliation``, ``EventOrder``).
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.obs.events import TraceEvent

__all__ = [
    "TraceAnalyzer",
    "PhaseBreakdown",
    "load_trace",
]

EventLike = Union[TraceEvent, Dict[str, Any]]


def _as_dict(event: EventLike) -> Dict[str, Any]:
    return event.to_dict() if isinstance(event, TraceEvent) else dict(event)


def load_trace(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Load a JSONL trace file into wire-format dicts (skipping blanks)."""
    events: List[Dict[str, Any]] = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


@dataclass
class PhaseBreakdown:
    """Latency accounting for one user (or an aggregate)."""

    frames: int = 0
    lost: int = 0
    rtt_ms: float = 0.0
    queue_ms: float = 0.0
    process_ms: float = 0.0
    latency_ms: float = 0.0

    @property
    def phase_sum_ms(self) -> float:
        return self.rtt_ms + self.queue_ms + self.process_ms

    def mean(self, total: float) -> float:
        return total / self.frames if self.frames else 0.0

    def row(self, label: str) -> List[object]:
        """One table row: label, frames, lost, mean phase times, share."""
        mean_latency = self.mean(self.latency_ms)
        return [
            label,
            self.frames,
            self.lost,
            f"{self.mean(self.rtt_ms):.1f}",
            f"{self.mean(self.queue_ms):.1f}",
            f"{self.mean(self.process_ms):.1f}",
            f"{mean_latency:.1f}",
        ]


class TraceAnalyzer:
    """Reduce a trace (events or JSONL dicts) into evaluation views."""

    def __init__(self, events: Iterable[EventLike]) -> None:
        self.events: List[Dict[str, Any]] = [_as_dict(e) for e in events]

    # ------------------------------------------------------------------
    # Inventory
    # ------------------------------------------------------------------
    def event_type_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = defaultdict(int)
        for event in self.events:
            counts[event["type"]] += 1
        return dict(sorted(counts.items()))

    # ------------------------------------------------------------------
    # Per-user timeline
    # ------------------------------------------------------------------
    def per_user_timeline(
        self, user_id: str, limit: Optional[int] = None
    ) -> List[Dict[str, Any]]:
        """All events mentioning ``user_id``, in emission order.

        Node-scoped events (``node_fail``) are included when the node is
        one the user interacted with, so a timeline shows the failure
        that explains the failover right after it.
        """
        interacted = {
            e.get("node_id")
            for e in self.events
            if e.get("user_id") == user_id and e.get("node_id")
        }
        timeline = [
            e
            for e in self.events
            if e.get("user_id") == user_id
            or (e["type"] == "node_fail" and e.get("node_id") in interacted)
        ]
        return timeline[:limit] if limit is not None else timeline

    # ------------------------------------------------------------------
    # Latency-phase breakdown
    # ------------------------------------------------------------------
    def phase_breakdown(self) -> Dict[str, PhaseBreakdown]:
        """Per-user phase totals over completed frames."""
        result: Dict[str, PhaseBreakdown] = defaultdict(PhaseBreakdown)
        for event in self.events:
            kind = event["type"]
            if kind == "phase_span":
                entry = result[event["user_id"]]
                phase = event["phase"]
                if phase == "rtt":
                    entry.rtt_ms += event["duration_ms"]
                elif phase == "queue":
                    entry.queue_ms += event["duration_ms"]
                elif phase == "process":
                    entry.process_ms += event["duration_ms"]
            elif kind == "frame_done":
                entry = result[event["user_id"]]
                if event.get("latency_ms") is None:
                    entry.lost += 1
                else:
                    entry.frames += 1
                    entry.latency_ms += event["latency_ms"]
        return dict(sorted(result.items()))

    def total_breakdown(self) -> PhaseBreakdown:
        total = PhaseBreakdown()
        for entry in self.phase_breakdown().values():
            total.frames += entry.frames
            total.lost += entry.lost
            total.rtt_ms += entry.rtt_ms
            total.queue_ms += entry.queue_ms
            total.process_ms += entry.process_ms
            total.latency_ms += entry.latency_ms
        return total

    # ------------------------------------------------------------------
    # Failover gaps
    # ------------------------------------------------------------------
    def failover_gaps(self) -> List[Tuple[str, float]]:
        """``(user_id, gap_ms)`` per recovery: node failure → re-serve.

        For a covered failover the gap ends at the backup attach; for an
        uncovered failure it ends at the next join accept (full
        re-discovery). Failures with no preceding ``node_fail`` (e.g. a
        trace that started mid-run) are skipped.
        """
        gaps: List[Tuple[str, float]] = []
        last_fail_ms: Optional[float] = None
        pending_uncovered: Dict[str, float] = {}
        for event in self.events:
            kind = event["type"]
            if kind == "node_fail":
                last_fail_ms = event["t_ms"]
            elif kind == "covered_failover" and last_fail_ms is not None:
                gaps.append((event["user_id"], event["t_ms"] - last_fail_ms))
            elif kind == "uncovered_failure" and last_fail_ms is not None:
                pending_uncovered[event["user_id"]] = last_fail_ms
            elif kind == "join_accept":
                start = pending_uncovered.pop(event["user_id"], None)
                if start is not None:
                    gaps.append((event["user_id"], event["t_ms"] - start))
        return gaps

    def policy_decisions(self) -> List[Dict[str, Any]]:
        """All ``policy_decision`` events (per-candidate scored rankings)."""
        return [e for e in self.events if e["type"] == "policy_decision"]

    def policy_decision_summary(self) -> Dict[str, Dict[str, float]]:
        """Per winning node: how often the policy ranked it first, and by
        how much.

        Returns ``{node_id: {"wins", "mean_margin_ms"}}`` where the
        margin is the runner-up's score minus the winner's — small
        margins mean contested decisions, large ones a clear favourite.
        Decisions with a single candidate count as wins with margin 0.
        """
        margins: Dict[str, List[float]] = defaultdict(list)
        for event in self.policy_decisions():
            ranked = event.get("ranked") or ()
            if not ranked:
                continue
            scores = event.get("scores") or ()
            margin = scores[1] - scores[0] if len(scores) >= 2 else 0.0
            margins[ranked[0]].append(margin)
        return {
            node: {
                "wins": float(len(values)),
                "mean_margin_ms": sum(values) / len(values),
            }
            for node, values in sorted(margins.items())
        }

    def failover_gap_histogram(
        self, bin_ms: float = 100.0
    ) -> List[Tuple[float, int]]:
        """Histogram of recovery gaps: ``(bin_start_ms, count)`` rows."""
        if bin_ms <= 0:
            raise ValueError(f"bin_ms must be positive: {bin_ms}")
        counts: Dict[float, int] = defaultdict(int)
        for _, gap in self.failover_gaps():
            counts[(gap // bin_ms) * bin_ms] += 1
        return sorted(counts.items())

