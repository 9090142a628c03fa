"""The typed trace-event catalog.

One event class per observable step of the paper's lifecycle. Both
execution backends emit the same types with the same fields; only the
meaning of ``t_ms`` differs (simulation time vs. wall-clock milliseconds
since the tracer's epoch). Events are deliberately plain mutable
dataclasses — they are constructed on hot paths (every offloaded frame
emits one ``FrameDone``), and a frozen dataclass pays an
``object.__setattr__`` per field.

Wire schema: :meth:`TraceEvent.to_dict` flattens an event to a JSON
object ``{"type": <type tag>, "t_ms": ..., <fields>}``;
:func:`event_from_dict` is the inverse, through :data:`EVENT_TYPES`,
where each class files itself under its tag as it is defined. The JSONL
sink writes one such object per line, which is what ``repro trace
--summary`` and the golden-schema tests consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Dict, Optional, Tuple, Type

#: Type tag -> event class, filled as each class is defined.
EVENT_TYPES: Dict[str, Type["TraceEvent"]] = {}

#: The three latency phases a completed frame decomposes into. Their
#: spans sum exactly to the frame's end-to-end latency (the identity
#: ``repro.verify.PhaseReconciliation`` checks).
PHASES = ("rtt", "queue", "process")


@dataclass
class TraceEvent:
    """Base of every trace event: a type tag plus a timestamp.

    ``t_ms`` is simulation time for the sim backend and wall-clock
    milliseconds since the tracer's epoch for the live runtime — the
    schema is identical either way.
    """

    type: ClassVar[str] = "trace"
    #: Fields annotated ``Tuple[...]``: JSON brings them back as lists.
    _tuple_fields: ClassVar[Tuple[str, ...]] = ()
    t_ms: float

    def __init_subclass__(cls, **kwargs: Any) -> None:
        """Register the class under its ``type`` tag; a tag is one class's."""
        super().__init_subclass__(**kwargs)
        taken = EVENT_TYPES.get(cls.type)
        if taken is not None:
            raise ValueError(f"trace event type {cls.type!r} is {taken.__name__}'s")
        EVENT_TYPES[cls.type] = cls
        cls._tuple_fields = tuple(
            name
            for name, hint in cls.__dict__.get("__annotations__", {}).items()
            if str(hint).startswith("Tuple[")
        )

    def to_dict(self) -> Dict[str, Any]:
        """Flatten to the JSONL wire object (tuples become lists)."""
        out: Dict[str, Any] = {"type": self.type}
        for key, value in self.__dict__.items():
            out[key] = list(value) if isinstance(value, tuple) else value
        return out


# ----------------------------------------------------------------------
# Discovery (client <-> Central Manager)
# ----------------------------------------------------------------------
@dataclass
class DiscoveryIssued(TraceEvent):
    """A user sent an edge-discovery query to the Central Manager."""

    type: ClassVar[str] = "discovery_issued"
    user_id: str


@dataclass
class DiscoveryReturned(TraceEvent):
    """The candidate list came back (with the TopN ids and whether the
    search radius was widened)."""

    type: ClassVar[str] = "discovery_returned"
    user_id: str
    candidates: Tuple[str, ...]
    widened: bool = False


# ----------------------------------------------------------------------
# Probing (client <-> candidate node)
# ----------------------------------------------------------------------
@dataclass
class ProbeSent(TraceEvent):
    """``RTT_probe`` + ``Process_probe`` dispatched to one candidate."""

    type: ClassVar[str] = "probe_sent"
    user_id: str
    node_id: str


@dataclass
class ProbeAnswered(TraceEvent):
    """A candidate answered its probe (dead candidates never do)."""

    type: ClassVar[str] = "probe_answered"
    user_id: str
    node_id: str
    rtt_ms: float
    what_if_ms: float


# ----------------------------------------------------------------------
# Join protocol
# ----------------------------------------------------------------------
@dataclass
class JoinAttempt(TraceEvent):
    """``Join()`` delivered to the chosen node (seqNum echo in flight)."""

    type: ClassVar[str] = "join_attempt"
    user_id: str
    node_id: str


@dataclass
class JoinAccept(TraceEvent):
    """The node accepted the join; the user is now served by it."""

    type: ClassVar[str] = "join_accept"
    user_id: str
    node_id: str


@dataclass
class JoinReject(TraceEvent):
    """seqNum mismatch (state changed since the probe): join refused."""

    type: ClassVar[str] = "join_reject"
    user_id: str
    node_id: str


@dataclass
class Switch(TraceEvent):
    """A voluntary better-node switch (hysteresis passed)."""

    type: ClassVar[str] = "switch"
    user_id: str
    from_node: Optional[str] = None
    to_node: Optional[str] = None


@dataclass
class PolicyDecision(TraceEvent):
    """One ranking verdict of the client's selection policy.

    ``ranked`` lists the surviving candidates best-first and ``scores``
    carries each one's policy score in the same order (predicted ms,
    lower is better) — enough for the analyzer to explain *why* a node
    won and by what margin. A detail event: only emitted when trace
    capture is enabled, like ``JoinAttempt``/``DiscoveryReturned``.
    """

    type: ClassVar[str] = "policy_decision"
    user_id: str
    policy: str
    ranked: Tuple[str, ...]
    scores: Tuple[float, ...]


# ----------------------------------------------------------------------
# Frame lifecycle
# ----------------------------------------------------------------------
@dataclass
class FrameStart(TraceEvent):
    """An offloaded frame left the client toward its edge node."""

    type: ClassVar[str] = "frame_start"
    user_id: str
    node_id: str
    frame_id: int


@dataclass
class PhaseSpan(TraceEvent):
    """One latency phase of a completed frame.

    ``phase`` is one of :data:`PHASES`:

    - ``rtt`` — network propagation + transfer (uplink and downlink);
    - ``queue`` — waiting: client-side backlog while unattached plus
      the node's frame-queue wait;
    - ``process`` — the node's actual service time.

    The three spans of a frame sum to its ``FrameDone.latency_ms``.
    """

    type: ClassVar[str] = "phase_span"
    user_id: str
    frame_id: int
    phase: str
    duration_ms: float


@dataclass
class FrameDone(TraceEvent):
    """A frame completed (or was lost: ``latency_ms is None``)."""

    type: ClassVar[str] = "frame_done"
    user_id: str
    node_id: str
    frame_id: int
    created_ms: float
    latency_ms: Optional[float] = None


# ----------------------------------------------------------------------
# Failures and failover
# ----------------------------------------------------------------------
@dataclass
class NodeFail(TraceEvent):
    """A node crashed / left without notification."""

    type: ClassVar[str] = "node_fail"
    node_id: str


@dataclass
class CoveredFailover(TraceEvent):
    """A failure absorbed by a proactive backup (no re-discovery)."""

    type: ClassVar[str] = "covered_failover"
    user_id: str
    node_id: str


@dataclass
class UncoveredFailure(TraceEvent):
    """Every backup was dead too: the user fell back to re-discovery
    (the paper's Fig. 10b counts exactly these)."""

    type: ClassVar[str] = "uncovered_failure"
    user_id: str


# ----------------------------------------------------------------------
# Node-side triggers
# ----------------------------------------------------------------------
@dataclass
class TestWorkloadInvoked(TraceEvent):
    """A synthetic what-if frame went through the node's real queue."""

    type: ClassVar[str] = "test_workload_invoked"
    node_id: str


@dataclass
class CacheHit(TraceEvent):
    """A ``Process_probe`` was served from the what-if cache (a read,
    never a test-workload run — the paper's decoupling argument)."""

    type: ClassVar[str] = "cache_hit"
    node_id: str
    what_if_ms: float


@dataclass
class CacheMiss(TraceEvent):
    """A trigger declared the cache stale and scheduled a refresh.

    ``reason`` is one of ``prime`` (node start), ``join``, ``leave``,
    ``drift`` (performance monitor), ``idle`` (idle-node win-back).
    """

    type: ClassVar[str] = "cache_miss"
    node_id: str
    reason: str


@dataclass
class HeartbeatMissed(TraceEvent):
    """A live node failed to reach the manager; it will retry after a
    jittered exponential backoff of ``retry_in_ms``."""

    type: ClassVar[str] = "heartbeat_missed"
    node_id: str
    attempt: int
    retry_in_ms: float


@dataclass
class PopulationChanged(TraceEvent):
    """The alive-node population changed (Fig. 8's grey stair line)."""

    type: ClassVar[str] = "population"
    count: int


# ----------------------------------------------------------------------
# Fault injection and recovery (the repro.faults subsystem)
# ----------------------------------------------------------------------
@dataclass
class FaultInjected(TraceEvent):
    """One fault fired (a rule of an active :class:`repro.faults.FaultPlan`).

    ``kind`` is one of ``drop``/``delay``/``duplicate``/``partition``/
    ``outage``/``gray_start``/``gray_end``/``crash``; ``src``/``dst``
    name the affected link for message faults and are empty for
    node-level faults (which carry the node in ``dst``).
    """

    type: ClassVar[str] = "fault_injected"
    rule_id: str
    kind: str
    src: str = ""
    dst: str = ""


@dataclass
class NodeRestart(TraceEvent):
    """A previously crashed node came back under the *same* id (fresh
    admission state: seqNum 0, empty attachment table, re-primed cache)."""

    type: ClassVar[str] = "node_restart"
    node_id: str


@dataclass
class BreakerTransition(TraceEvent):
    """A per-endpoint circuit breaker changed state
    (``closed``/``open``/``half_open``)."""

    type: ClassVar[str] = "breaker_transition"
    endpoint: str
    from_state: str
    to_state: str


@dataclass
class RetryScheduled(TraceEvent):
    """A failed request will be retried after ``delay_ms`` of
    decorrelated-jitter backoff (within the total latency budget)."""

    type: ClassVar[str] = "retry_scheduled"
    user_id: str
    op: str
    attempt: int
    delay_ms: float


@dataclass
class DegradedFallback(TraceEvent):
    """The Central Manager was unreachable: the selection round fell
    back to the last known candidate list plus the adopted backups
    instead of stalling (graceful degradation)."""

    type: ClassVar[str] = "degraded_fallback"
    user_id: str
    reason: str
    candidates: Tuple[str, ...] = ()


@dataclass
class AttachmentExpired(TraceEvent):
    """A node's admission lease evicted a silent user.

    The server-side cleanup path for a ``Leave()`` that never arrived
    (lost to a partition, or skipped because the client believed the
    node dead): after ``idle_ms`` without frames the node presumes the
    user gone and processes an implicit leave."""

    type: ClassVar[str] = "attachment_expired"
    node_id: str
    user_id: str
    idle_ms: float


# ----------------------------------------------------------------------
# Sweep lifecycle (the repro.sweep execution engine)
# ----------------------------------------------------------------------
@dataclass
class SweepRunStarted(TraceEvent):
    """One sweep run was handed to a platform (inline or a child process)."""

    type: ClassVar[str] = "sweep_run_started"
    run_key: str
    experiment: str
    attempt: int = 1


@dataclass
class SweepRunFinished(TraceEvent):
    """One sweep run finished. ``status`` is ``ok``/``failed``/``timeout``."""

    type: ClassVar[str] = "sweep_run_finished"
    run_key: str
    experiment: str
    status: str
    duration_s: float = 0.0


@dataclass
class SweepRunRetried(TraceEvent):
    """A run is being re-submitted after an infrastructure failure
    (its process died or it timed out), not an experiment error."""

    type: ClassVar[str] = "sweep_run_retried"
    run_key: str
    experiment: str
    attempt: int
    reason: str


@dataclass
class SweepRunSkipped(TraceEvent):
    """A run was satisfied from the run store (resume skipped it)."""

    type: ClassVar[str] = "sweep_run_skipped"
    run_key: str
    experiment: str


# ----------------------------------------------------------------------
# Metro kernel / sharding
# ----------------------------------------------------------------------
@dataclass
class ShardHandoff(TraceEvent):
    """A user migrated across the shard boundary channel.

    Emitted by the owning shard when a re-selection round picked a
    ghost-advertised node owned by another shard; the migration itself
    completes at the next boundary epoch.
    """

    type: ClassVar[str] = "shard_handoff"
    user_id: str
    from_shard: str
    to_shard: str
    node_id: str


# ----------------------------------------------------------------------
# Control plane (sharded, replicated Central Manager)
# ----------------------------------------------------------------------
@dataclass
class ShardRoute(TraceEvent):
    """The control-plane router resolved a discovery query's fan-out.

    ``shards`` are the control-plane shard indices queried (after the
    widening decision); ``cross_shard`` marks queries whose covering
    cells straddled a shard boundary. Distinct from the metro kernel's
    ``shard_handoff`` (user migration between sim shards) — these shards
    partition the *node registry*, not the client population.
    """

    type: ClassVar[str] = "shard_route"
    user_id: str
    shards: Tuple[int, ...]
    cross_shard: bool


@dataclass
class ShardMerge(TraceEvent):
    """A cross-shard discovery merged per-shard TopN partials.

    ``pool`` is the merged candidate-pool size (sum of per-shard TopN
    lengths) the global TopN was cut from.
    """

    type: ClassVar[str] = "shard_merge"
    user_id: str
    shards: int
    pool: int
    widened: bool


@dataclass
class ManagerPromote(TraceEvent):
    """A standby replica became primary for a control-plane shard."""

    type: ClassVar[str] = "manager_promote"
    shard: int
    replica: int
    reason: str


@dataclass
class RegistryHandoff(TraceEvent):
    """Registry entries copied to a replica rejoining its control-plane
    shard. Always from a deduplicated snapshot — never the raw expiry
    heap."""

    type: ClassVar[str] = "registry_handoff"
    source: str
    target: str
    entries: int
    reason: str


# ----------------------------------------------------------------------
# Chaos hunt (the repro.faults.search schedule-search engine)
# ----------------------------------------------------------------------
@dataclass
class HuntAttempt(TraceEvent):
    """One sampled fault schedule was replayed and checked.

    ``violations`` counts the streaming-invariant violations the trace
    produced (0 = the schedule survived); ``rules`` the schedule size.
    """

    type: ClassVar[str] = "hunt_attempt"
    attempt: int
    plan_seed: int
    rules: int
    violations: int
    invariant: str = ""


@dataclass
class ShrinkStep(TraceEvent):
    """One delta-debugging reduction step on a violating schedule.

    ``action`` names the reduction tried (``drop_rules`` /
    ``narrow_window`` / ``reduce_targets``); ``kept`` is whether the
    reduced plan still reproduced the violation and was adopted.
    """

    type: ClassVar[str] = "shrink_step"
    action: str
    rules_before: int
    rules_after: int
    kept: bool
    detail: str = ""


#: Every registered class, so ``repro.obs`` re-exports the whole catalog.
__all__ = [
    "TraceEvent",
    *(cls.__name__ for cls in EVENT_TYPES.values()),
    "EVENT_TYPES",
    "GOLDEN_LIFECYCLE_TYPES",
    "PHASES",
    "event_from_dict",
]

#: The event types every traced end-to-end scenario — simulated or live
#: loopback — must produce when it exercises the full lifecycle
#: (discovery, probing, join, serving, a node failure, a covered
#: failover). The golden-schema test asserts both backends emit exactly
#: this surface. ``join_reject``/``uncovered_failure``/``switch``/
#: ``heartbeat_missed`` are deliberately absent: they depend on race
#: timing and scenario shape, not on the backend.
GOLDEN_LIFECYCLE_TYPES = frozenset(
    {
        "discovery_issued",
        "discovery_returned",
        "probe_sent",
        "probe_answered",
        "join_attempt",
        "join_accept",
        "frame_start",
        "phase_span",
        "frame_done",
        "node_fail",
        "covered_failover",
        "test_workload_invoked",
        "cache_hit",
        "cache_miss",
        "population",
    }
)


def event_from_dict(data: Dict[str, Any]) -> TraceEvent:
    """Rehydrate a wire object (one parsed JSONL line) into its event.

    Raises:
        KeyError: unknown ``type`` tag.
        TypeError: fields don't match the event class.
    """
    payload = dict(data)
    cls = EVENT_TYPES[payload.pop("type")]
    for key in cls._tuple_fields:
        if isinstance(payload.get(key), list):
            payload[key] = tuple(payload[key])
    return cls(**payload)
