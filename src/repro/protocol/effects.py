"""Typed effects returned by the sans-IO protocol machines.

An effect is an *instruction to the driver*: perform this I/O, start
this timer, emit this trace event. Machines return ``List[Effect]``
from ``handle()`` and never touch a clock, a socket, or the simulator
kernel themselves. Drivers execute effects **in order** — the order
encodes the protocol's own sequencing (e.g. leave-before-attach on a
switch, backup adoption before backlog flush).

Wire-message construction stays in the drivers: effects carry plain
fields and the transport builds its ``ProbeReply``/``JoinReply``/
``CandidateList`` (or JSON payload) from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.messages import NodeStatus, ProbeOutcome
from repro.obs.events import TraceEvent

__all__ = [
    "Effect",
    "EmitTrace",
    # selection (client role)
    "SendDiscovery",
    "ProbeCandidates",
    "SendJoin",
    "SendLeave",
    "SendFailoverJoin",
    "Attached",
    "UpdateBackups",
    "FlushBacklog",
    "StartTimer",
    # admission (edge-server role)
    "ReplyProbe",
    "ReplyJoin",
    "ScheduleTestWorkload",
    # global selection (Central Manager role)
    "ReplyCandidates",
    "ReplyPartialCandidates",
    "NodeOnline",
    "NodeExpired",
]


class Effect:
    """Marker base class of every protocol effect."""

    __slots__ = ()


@dataclass(slots=True)
class EmitTrace(Effect):
    """Emit one observability event on the backend's tracer.

    Decision events (discovery, join verdicts, switches, failovers) are
    produced here by the machines; transport measurements (probe RTTs,
    frame phases) stay with the drivers that measure them.
    """

    event: TraceEvent


# ----------------------------------------------------------------------
# Selection effects (client role)
# ----------------------------------------------------------------------
@dataclass(slots=True)
class SendDiscovery(Effect):
    """Send an edge-discovery query to the Central Manager and feed the
    reply back as :class:`~repro.protocol.events.CandidatesReceived`."""

    top_n: int
    exclude: Tuple[str, ...] = ()


@dataclass(slots=True)
class ProbeCandidates(Effect):
    """Probe all candidates in parallel (``RTT_probe`` +
    ``Process_probe``); feed the collected outcomes back as
    :class:`~repro.protocol.events.ProbesCompleted` when the slowest
    answers."""

    node_ids: Tuple[str, ...]


@dataclass(slots=True)
class SendJoin(Effect):
    """``Join()`` the chosen candidate, echoing its probed ``seq_num``;
    feed the verdict back as :class:`~repro.protocol.events.JoinResult`."""

    outcome: ProbeOutcome


@dataclass(slots=True)
class SendLeave(Effect):
    """``Leave()`` a node (fire-and-forget)."""

    node_id: str
    reason: str


@dataclass(slots=True)
class SendFailoverJoin(Effect):
    """``Unexpected_join()`` a backup; feed the verdict back as
    :class:`~repro.protocol.events.FailoverResult`."""

    node_id: str


@dataclass(slots=True)
class Attached(Effect):
    """The machine committed to ``node_id`` as the serving edge.

    The driver warms/keeps the connection (``rtt_ms``) and updates any
    transport-level attachment state. ``via`` is ``"join"`` for a
    selection-round attach and ``"failover"`` for a backup adoption.
    """

    node_id: str
    rtt_ms: float
    previous: Optional[str]
    via: str


@dataclass(slots=True)
class UpdateBackups(Effect):
    """The backup list changed: exactly the ranked non-chosen
    candidates, truncated to TopN−1. The driver warms proactive
    connections and closes connections to dropped nodes."""

    outcomes: Tuple[ProbeOutcome, ...]


@dataclass(slots=True)
class FlushBacklog(Effect):
    """(Re)attached after downtime: release any buffered frames."""


@dataclass(slots=True)
class StartTimer(Effect):
    """Arm a one-shot timer; on expiry feed the event named by ``kind``
    (currently only ``"retry_round"`` →
    :class:`~repro.protocol.events.RoundStarted`)."""

    kind: str
    delay_ms: float


# ----------------------------------------------------------------------
# Admission effects (edge-server role)
# ----------------------------------------------------------------------
@dataclass(slots=True)
class ReplyProbe(Effect):
    """Answer a ``Process_probe`` from the what-if cache. The driver
    adds its transport framing (and the node id) to these fields."""

    what_if_ms: float
    seq_num: int
    attached_users: int
    current_proc_ms: float
    stay_ms: float


@dataclass(slots=True)
class ReplyJoin(Effect):
    """Answer a ``Join``/``Unexpected_join`` with the verdict and the
    node's (possibly just-incremented) ``seq_num``."""

    accepted: bool
    seq_num: int


@dataclass(slots=True)
class ScheduleTestWorkload(Effect):
    """Run the synthetic what-if test workload. ``delayed`` asks the
    driver to wait ~2× the common RTT first (the join trigger: measure
    once the new user's frames are flowing); feed the result back as
    :class:`~repro.protocol.events.TestWorkloadCompleted`."""

    reason: str
    delayed: bool = False


# ----------------------------------------------------------------------
# Global-selection effects (Central Manager role)
# ----------------------------------------------------------------------
@dataclass(slots=True)
class ReplyCandidates(Effect):
    """Answer a discovery query with the ranked TopN candidate ids."""

    node_ids: Tuple[str, ...]
    widened: bool
    generated_at_ms: float


@dataclass(slots=True)
class ReplyPartialCandidates(Effect):
    """Answer a shard-scoped fixed-radius discovery phase.

    ``count`` is the shard's *exact* in-radius candidate count (the
    router sums counts across shards to replay the single-manager
    widening decision bit-identically); ``statuses`` is the shard's
    local TopN under the policy's total-order sort key — a superset of
    this shard's contribution to the global TopN.
    """

    count: int
    statuses: Tuple[NodeStatus, ...]
    radius_km: float
    generated_at_ms: float


@dataclass(slots=True)
class NodeOnline(Effect):
    """A heartbeat refreshed ``node_id``; ``new`` marks a first sighting
    (drivers use it for population traces / reputation tracking)."""

    node_id: str
    new: bool


@dataclass(slots=True)
class NodeExpired(Effect):
    """``node_id`` silently aged out of the registry (or was forgotten)."""

    node_id: str
