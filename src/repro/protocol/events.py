"""Typed input events consumed by the sans-IO protocol machines.

Every event is a plain record: a timestamp (``now`` — sim-time or
wall-clock milliseconds, the machine never cares which) plus the data
the I/O layer observed. Drivers construct these from kernel callbacks
(sim) or awaited socket replies (live) and feed them to a machine's
``handle()``; the machine returns :mod:`~repro.protocol.effects`.

The classes are deliberately mutable ``slots=True`` dataclasses: they
are allocated on hot paths (one per probe round / heartbeat), matching
the :mod:`repro.obs.events` precedent.

The message types the events carry come from :mod:`repro.messages`,
the leaf below both this package and :mod:`repro.policy`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.messages import DiscoveryQuery, NodeStatus, ProbeOutcome

__all__ = [
    "ProtocolEvent",
    # selection (client role)
    "RoundStarted",
    "CandidatesReceived",
    "DiscoveryFailed",
    "ProbesCompleted",
    "JoinResult",
    "EdgeFailed",
    "FailoverResult",
    # admission (edge-server role)
    "ProbeRequested",
    "JoinRequested",
    "UnexpectedJoinRequested",
    "LeaveRequested",
    "TestWorkloadCompleted",
    "MonitorSample",
    "NodeFailed",
    # global selection (Central Manager role)
    "HeartbeatReceived",
    "DiscoveryRequested",
    "PartialDiscoveryRequested",
    "PruneTick",
]


class ProtocolEvent:
    """Marker base class of every protocol input event."""

    __slots__ = ()


# ----------------------------------------------------------------------
# Selection-machine inputs (client role)
# ----------------------------------------------------------------------
@dataclass(slots=True)
class RoundStarted(ProtocolEvent):
    """A selection round should begin (periodic timer or retry timer)."""

    now: float


@dataclass(slots=True)
class CandidatesReceived(ProtocolEvent):
    """The Central Manager answered discovery with the TopN candidates."""

    now: float
    node_ids: Tuple[str, ...]
    widened: bool = False


@dataclass(slots=True)
class DiscoveryFailed(ProtocolEvent):
    """The discovery request never got an answer (Central Manager
    unreachable, timed out, or partitioned away).

    Distinct from :class:`CandidatesReceived` with an empty list — that
    is the manager *answering* "nothing available", which ends the
    round; an unreachable manager instead triggers the degraded
    fallback onto cached candidates and backups.
    """

    now: float
    reason: str = "unreachable"


@dataclass(slots=True)
class ProbesCompleted(ProtocolEvent):
    """The probe fan-out closed: every answering candidate's outcome.

    Dead candidates never answer and are simply absent.
    """

    now: float
    outcomes: Tuple[ProbeOutcome, ...]


@dataclass(slots=True)
class JoinResult(ProtocolEvent):
    """The ``Join()`` attempt came back (or the node was unreachable).

    ``attempted_at`` is when the join reached the node (= when the
    transport learned the result on both backends); ``node_alive`` is
    False when the node could not be reached at all — that case does
    not count as a node-side rejection.
    """

    now: float
    node_id: str
    accepted: bool
    attempted_at: float
    node_alive: bool = True


@dataclass(slots=True)
class EdgeFailed(ProtocolEvent):
    """A connection to ``node_id`` broke (failure detector / send error)."""

    now: float
    node_id: str


@dataclass(slots=True)
class FailoverResult(ProtocolEvent):
    """An ``Unexpected_join()`` to a backup returned.

    ``rtt_ms`` is the (driver-measured) round-trip the attachment will
    reuse for the standing connection.
    """

    now: float
    node_id: str
    accepted: bool
    rtt_ms: float = 0.0


# ----------------------------------------------------------------------
# Admission-machine inputs (edge-server role)
# ----------------------------------------------------------------------
@dataclass(slots=True)
class ProbeRequested(ProtocolEvent):
    """A ``Process_probe()`` arrived. ``recent_mean_ms`` is the node's
    measured recent mean sojourn (None when no recent traffic)."""

    now: float
    recent_mean_ms: Optional[float] = None


@dataclass(slots=True)
class JoinRequested(ProtocolEvent):
    """A ``Join()`` arrived echoing the caller's probed ``seq_num``."""

    now: float
    user_id: str
    seq_num: int
    fps: float


@dataclass(slots=True)
class UnexpectedJoinRequested(ProtocolEvent):
    """An ``Unexpected_join()`` (failover attach; cannot be rejected)."""

    now: float
    user_id: str
    fps: float


@dataclass(slots=True)
class LeaveRequested(ProtocolEvent):
    """A ``Leave()`` arrived."""

    now: float
    user_id: str


@dataclass(slots=True)
class TestWorkloadCompleted(ProtocolEvent):
    """The synthetic what-if frame finished with ``measured_ms`` sojourn."""

    now: float
    measured_ms: float
    slowdown_factor: float = 1.0


@dataclass(slots=True)
class MonitorSample(ProtocolEvent):
    """One performance-monitor tick: the recent measured sojourn (None
    when idle) and the node's idle-floor service time."""

    now: float
    measured_ms: Optional[float]
    idle_floor_ms: float


@dataclass(slots=True)
class NodeFailed(ProtocolEvent):
    """The node itself crashed / left without notification."""

    now: float


# ----------------------------------------------------------------------
# Global-selection-machine inputs (Central Manager role)
# ----------------------------------------------------------------------
@dataclass(slots=True)
class HeartbeatReceived(ProtocolEvent):
    """A node status report arrived. ``stamp`` is the backend's expiry
    clock reading (sim: ``reported_at_ms``; live: ``time.monotonic()``)
    — the machine only ever compares stamps against each other."""

    stamp: float
    status: NodeStatus


@dataclass(slots=True)
class DiscoveryRequested(ProtocolEvent):
    """An edge-discovery query arrived. ``now`` stamps the reply
    (``generated_at_ms``); ``stamp`` drives expiry."""

    now: float
    stamp: float
    query: DiscoveryQuery


@dataclass(slots=True)
class PartialDiscoveryRequested(ProtocolEvent):
    """A shard-scoped discovery sub-query from the control-plane router.

    Unlike :class:`DiscoveryRequested`, the radius is pinned by the
    caller: the router owns the two-phase widening decision *globally*
    (it needs exact in-radius counts summed across shards before it can
    decide), so each shard machine answers one fixed-radius phase with
    its local count plus its local TopN.
    """

    now: float
    stamp: float
    query: DiscoveryQuery
    radius_km: float


@dataclass(slots=True)
class PruneTick(ProtocolEvent):
    """Expire registry entries older than the heartbeat timeout."""

    stamp: float
