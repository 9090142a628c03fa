"""Typed streaming invariants over obs traces.

Each :class:`Invariant` is a small state machine fed one trace event at
a time through :meth:`Invariant.observe`; end-of-trace conditions are
emitted by :meth:`Invariant.finish`. A tripped invariant yields a
:class:`Violation` pinned to the index of the event that tripped it —
the anchor the schedule-search shrinker uses to decide whether a
reduced plan still reproduces the same failure.

The suite is backend-agnostic: both runtimes emit the same typed event
schema, only the meaning of ``t_ms`` differs (plan/sim time vs.
wall-clock milliseconds). Budgets are expressed in plan-time
milliseconds and multiplied by ``time_scale`` for wall-clock traces
(the live chaos controller replays ``plan_ms_per_s`` plan milliseconds
per wall second, so its traces use ``time_scale = 1000 /
plan_ms_per_s``).

Invariants enforced:

- :class:`NoSplitBrain` — never two serving primaries for one
  control-plane shard: at most one ``manager_promote`` per failure
  epoch, and never a promotion of the replica that is currently down.
- :class:`PromotionBudget` — a shard-targeted outage must be answered
  by a ``manager_promote`` within the failure-detection budget.
- :class:`ClientStall` — no client goes longer than the failover budget
  between completed frames once it has joined (and must be streaming
  again by end of trace: the fault-free settle tail).
- :class:`SeqMonotonic` — per-user frame sequence numbers are strictly
  monotonic (Algorithm 1's seqNum discipline as visible in the trace).
- :class:`AttachmentConsistency` — no frame completes on a dead node,
  no frames keep flowing to a node long after it died or after the
  node's lease expired the attachment (stranded admission), and nobody
  attaches to a dead node.
- :class:`DegradedFallbackCorrect` — ``degraded_fallback`` fires only
  when there is actual evidence of manager unavailability.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.obs.events import EVENT_TYPES, TraceEvent, event_from_dict

__all__ = [
    "Violation",
    "Budgets",
    "Invariant",
    "NoSplitBrain",
    "PromotionBudget",
    "ClientStall",
    "SeqMonotonic",
    "AttachmentConsistency",
    "DegradedFallbackCorrect",
    "default_invariants",
    "check_events",
]

EventSource = Union[TraceEvent, Dict[str, Any]]


# ----------------------------------------------------------------------
# The violation type
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Violation:
    """One tripped invariant, pinned to the trace position that tripped it.

    ``event_index`` is the 0-based index into the checked event
    sequence (``-1`` for end-of-trace conditions); ``subject`` names
    the affected user/node/shard where one exists.
    """

    invariant: str
    message: str
    event_index: int
    t_ms: float
    subject: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "invariant": self.invariant,
            "message": self.message,
            "event_index": self.event_index,
            "t_ms": self.t_ms,
            "subject": self.subject,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Violation":
        return cls(
            invariant=str(data["invariant"]),
            message=str(data["message"]),
            event_index=int(data["event_index"]),
            t_ms=float(data["t_ms"]),
            subject=str(data.get("subject", "")),
        )

    def __str__(self) -> str:
        where = f"event #{self.event_index}" if self.event_index >= 0 else "end of trace"
        return f"[{self.invariant}] {self.message} ({where} @ {self.t_ms:.0f}ms)"


# ----------------------------------------------------------------------
# Budgets
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Budgets:
    """Timing budgets the invariants enforce, in plan-time milliseconds.

    Attributes:
        promotion_ms: how long a shard may stay primary-less after a
            targeted outage before a standby must have been promoted
            (the failure-detection budget plus scheduling slack).
        failover_ms: the longest a joined client may go between
            completed frames — covers detection, failover and re-join.
        startup_ms: grace between a client's first ``join_accept`` and
            its first completed frame.
        dead_grace_ms: how long frames may still be *launched at* a
            dead node (the client has not detected the death yet);
            completions on a dead node are never allowed.
        degraded_slack_ms: how far past the last evidence of manager
            unavailability a ``degraded_fallback`` may still fire
            (in-flight retries drain after the outage window closes).
    """

    promotion_ms: float = 250.0
    failover_ms: float = 2_000.0
    startup_ms: float = 2_000.0
    dead_grace_ms: float = 1_000.0
    degraded_slack_ms: float = 1_500.0

    def scaled(self, time_scale: float) -> "Budgets":
        """Budgets for a trace whose clock runs at ``time_scale`` times
        plan time (live chaos: ``1000 / plan_ms_per_s``)."""
        if time_scale == 1.0:
            return self
        return Budgets(
            promotion_ms=self.promotion_ms * time_scale,
            failover_ms=self.failover_ms * time_scale,
            startup_ms=self.startup_ms * time_scale,
            dead_grace_ms=self.dead_grace_ms * time_scale,
            degraded_slack_ms=self.degraded_slack_ms * time_scale,
        )

    def to_dict(self) -> Dict[str, float]:
        return {
            "promotion_ms": self.promotion_ms,
            "failover_ms": self.failover_ms,
            "startup_ms": self.startup_ms,
            "dead_grace_ms": self.dead_grace_ms,
            "degraded_slack_ms": self.degraded_slack_ms,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Budgets":
        known = {f: float(v) for f, v in data.items() if f in cls().to_dict()}
        return replace(cls(), **known)


# ----------------------------------------------------------------------
# Invariant base
# ----------------------------------------------------------------------
class Invariant:
    """One streaming recovery invariant.

    Subclasses keep whatever running state they need; both hooks yield
    :class:`Violation` instances. ``observe`` sees every event in trace
    order; ``finish`` runs once after the last event with the trace's
    final timestamp.
    """

    name: str = "invariant"

    def __init__(self, budgets: Budgets) -> None:
        self.budgets = budgets

    def observe(self, index: int, event: TraceEvent) -> Iterable[Violation]:
        return ()

    def finish(self, end_ms: float) -> Iterable[Violation]:
        return ()

    def _violation(
        self, message: str, index: int, t_ms: float, subject: str = ""
    ) -> Violation:
        return Violation(self.name, message, index, t_ms, subject)


# ----------------------------------------------------------------------
# Control plane: split brain and promotion budget
# ----------------------------------------------------------------------
def _outage_shard(event: TraceEvent) -> Optional[int]:
    """Shard index of a shard-targeted outage action event, else None."""
    dst = str(getattr(event, "dst", ""))
    if dst.startswith("shard:"):
        return int(dst.split(":", 1)[1])
    return None


class NoSplitBrain(Invariant):
    """Never two serving primaries for one control-plane shard.

    Visible in the trace as either (a) two ``manager_promote`` events
    for the same shard within one failure epoch (no intervening
    outage-window boundary — two replicas each believing they won the
    promotion), or (b) a promotion that names the very replica the
    active outage took down (a downed primary serving while down).
    """

    name = "no_split_brain"

    def __init__(self, budgets: Budgets) -> None:
        super().__init__(budgets)
        self._primary: Dict[int, int] = {}
        self._downed: Dict[int, int] = {}
        self._promoted_this_epoch: Set[int] = set()

    def observe(self, index: int, event: TraceEvent) -> Iterator[Violation]:
        kind = getattr(event, "kind", "")
        if event.type == "fault_injected" and kind in ("outage_start", "outage_end"):
            shard = _outage_shard(event)
            if shard is None:
                return
            self._promoted_this_epoch.discard(shard)
            if kind == "outage_start":
                self._downed[shard] = self._primary.get(shard, 0)
            else:
                self._downed.pop(shard, None)
        elif event.type == "manager_promote":
            shard = event.shard  # type: ignore[attr-defined]
            replica = event.replica  # type: ignore[attr-defined]
            if shard in self._promoted_this_epoch:
                yield self._violation(
                    f"shard {shard}: second primary promoted (replica "
                    f"{replica}) within one failure epoch",
                    index,
                    event.t_ms,
                    subject=f"shard:{shard}",
                )
            if self._downed.get(shard) == replica:
                yield self._violation(
                    f"shard {shard}: downed primary replica {replica} "
                    f"promoted while its outage is active",
                    index,
                    event.t_ms,
                    subject=f"shard:{shard}",
                )
            self._promoted_this_epoch.add(shard)
            self._primary[shard] = replica


class PromotionBudget(Invariant):
    """Standby promotion within the failure-detection budget.

    A shard-targeted ``outage_start`` opens a promotion deadline; the
    shard's ``manager_promote`` must arrive within
    ``budgets.promotion_ms``. Missing promotions are only reported when
    the trace shows standby capability at all (some shard promoted), or
    when the caller asserts it via ``expect_promotion=True`` — a
    replicas=1 trace has nothing to promote.
    """

    name = "promotion_budget"

    def __init__(
        self, budgets: Budgets, *, expect_promotion: Optional[bool] = None
    ) -> None:
        super().__init__(budgets)
        self.expect_promotion = expect_promotion
        self._pending: Dict[int, Tuple[int, float]] = {}
        self._any_promote = False
        self._missing: List[Violation] = []

    def observe(self, index: int, event: TraceEvent) -> Iterator[Violation]:
        if event.type == "fault_injected":
            kind = getattr(event, "kind", "")
            shard = _outage_shard(event)
            if shard is None:
                return
            if kind == "outage_start":
                self._pending.setdefault(shard, (index, event.t_ms))
            elif kind == "outage_end" and shard in self._pending:
                start_index, t0 = self._pending.pop(shard)
                if event.t_ms - t0 > self.budgets.promotion_ms:
                    self._missing.append(
                        self._violation(
                            f"shard {shard}: primary down for "
                            f"{event.t_ms - t0:.0f}ms with no standby "
                            f"promoted (budget "
                            f"{self.budgets.promotion_ms:.0f}ms)",
                            start_index,
                            t0,
                            subject=f"shard:{shard}",
                        )
                    )
        elif event.type == "manager_promote":
            self._any_promote = True
            shard = event.shard  # type: ignore[attr-defined]
            if shard in self._pending:
                _, t0 = self._pending.pop(shard)
                gap = event.t_ms - t0
                if gap > self.budgets.promotion_ms:
                    yield self._violation(
                        f"shard {shard}: promotion took {gap:.0f}ms "
                        f"(budget {self.budgets.promotion_ms:.0f}ms)",
                        index,
                        event.t_ms,
                        subject=f"shard:{shard}",
                    )

    def finish(self, end_ms: float) -> Iterator[Violation]:
        for shard, (start_index, t0) in sorted(self._pending.items()):
            if end_ms - t0 > self.budgets.promotion_ms:
                self._missing.append(
                    self._violation(
                        f"shard {shard}: outage still unanswered at end of "
                        f"trace ({end_ms - t0:.0f}ms, budget "
                        f"{self.budgets.promotion_ms:.0f}ms)",
                        start_index,
                        t0,
                        subject=f"shard:{shard}",
                    )
                )
        expected = (
            self.expect_promotion
            if self.expect_promotion is not None
            else self._any_promote
        )
        if expected:
            yield from self._missing


# ----------------------------------------------------------------------
# Client progress
# ----------------------------------------------------------------------
class ClientStall(Invariant):
    """No client stalled beyond the failover budget once it joined.

    Progress means a completed frame (``frame_done`` with a latency).
    The first completion must come within ``startup_ms`` of the first
    ``join_accept``; every later completion within ``failover_ms`` of
    the previous one; and the last completion within ``failover_ms`` of
    the end of the trace (the fault-free settle tail must be streaming).
    """

    name = "failover_stall"

    def __init__(self, budgets: Budgets) -> None:
        super().__init__(budgets)
        self._joined_ms: Dict[str, float] = {}
        self._last_done: Dict[str, Tuple[int, float]] = {}

    def observe(self, index: int, event: TraceEvent) -> Iterator[Violation]:
        if event.type == "join_accept":
            self._joined_ms.setdefault(event.user_id, event.t_ms)  # type: ignore[attr-defined]
        elif event.type == "frame_done" and event.latency_ms is not None:  # type: ignore[attr-defined]
            user = event.user_id  # type: ignore[attr-defined]
            if user in self._last_done:
                _, prev = self._last_done[user]
                gap = event.t_ms - prev
                if gap > self.budgets.failover_ms:
                    yield self._violation(
                        f"{user}: {gap:.0f}ms between completed frames "
                        f"(failover budget {self.budgets.failover_ms:.0f}ms)",
                        index,
                        event.t_ms,
                        subject=user,
                    )
            elif user in self._joined_ms:
                gap = event.t_ms - self._joined_ms[user]
                if gap > self.budgets.startup_ms:
                    yield self._violation(
                        f"{user}: first completed frame {gap:.0f}ms after "
                        f"join (startup budget {self.budgets.startup_ms:.0f}ms)",
                        index,
                        event.t_ms,
                        subject=user,
                    )
            self._last_done[user] = (index, event.t_ms)

    def finish(self, end_ms: float) -> Iterator[Violation]:
        for user, joined in sorted(self._joined_ms.items()):
            if user not in self._last_done:
                yield self._violation(
                    f"{user}: joined but never completed a frame",
                    -1,
                    end_ms,
                    subject=user,
                )
                continue
            _, last = self._last_done[user]
            gap = end_ms - last
            if gap > self.budgets.failover_ms:
                yield self._violation(
                    f"{user}: silent for the last {gap:.0f}ms of the trace "
                    f"(failover budget {self.budgets.failover_ms:.0f}ms)",
                    -1,
                    end_ms,
                    subject=user,
                )


class SeqMonotonic(Invariant):
    """Per-user frame sequence numbers strictly increase.

    Both backends assign client-side frame ids monotonically; a repeat
    or regression in the trace means duplicated or replayed offload
    state (the trace-visible face of Algorithm 1's seqNum discipline).
    """

    name = "seq_monotonic"

    def __init__(self, budgets: Budgets) -> None:
        super().__init__(budgets)
        self._last: Dict[str, int] = {}

    def observe(self, index: int, event: TraceEvent) -> Iterator[Violation]:
        if event.type != "frame_start":
            return
        user = event.user_id  # type: ignore[attr-defined]
        frame_id = event.frame_id  # type: ignore[attr-defined]
        last = self._last.get(user)
        if last is not None and frame_id <= last:
            yield self._violation(
                f"{user}: frame id {frame_id} after {last} "
                f"(per-user sequence must be strictly monotonic)",
                index,
                event.t_ms,
                subject=user,
            )
        self._last[user] = frame_id


# ----------------------------------------------------------------------
# Attachment consistency
# ----------------------------------------------------------------------
class AttachmentConsistency(Invariant):
    """Attachment state stays coherent under failures.

    - A frame must never *complete* on a dead node beyond the in-flight
      grace window (a response already on the wire when the node died
      may legitimately arrive).
    - Frames may still be launched at a dead node only inside the
      detection grace window (the client has not noticed yet).
    - After ``attachment_expired`` evicted a user, further frames from
      that user to that node without a fresh join are stranded
      admission state.
    - ``join_accept`` / ``covered_failover`` must never attach a user
      to a dead node.
    - A frame must be launched at the node the user is attached to
      (anything else is a double-attach: two nodes both believe they
      serve the user).
    """

    name = "attachment_consistency"

    def __init__(self, budgets: Budgets) -> None:
        super().__init__(budgets)
        self._attached: Dict[str, str] = {}
        self._alive: Dict[str, bool] = {}
        self._died_ms: Dict[str, float] = {}
        self._expired: Set[Tuple[str, str]] = set()
        self._expired_ms: Dict[Tuple[str, str], float] = {}

    def _node_dead(self, node_id: str) -> bool:
        return not self._alive.get(node_id, True)

    def observe(self, index: int, event: TraceEvent) -> Iterator[Violation]:
        kind = event.type
        if kind == "node_fail":
            self._alive[event.node_id] = False  # type: ignore[attr-defined]
            self._died_ms[event.node_id] = event.t_ms  # type: ignore[attr-defined]
        elif kind == "node_restart":
            node = event.node_id  # type: ignore[attr-defined]
            self._alive[node] = True
            self._expired = {e for e in self._expired if e[0] != node}
        elif kind in ("join_accept", "covered_failover"):
            user = event.user_id  # type: ignore[attr-defined]
            node = event.node_id  # type: ignore[attr-defined]
            if self._node_dead(node):
                what = "joined" if kind == "join_accept" else "failed over to"
                yield self._violation(
                    f"{user} {what} dead node {node}",
                    index,
                    event.t_ms,
                    subject=user,
                )
            self._attached[user] = node
            self._expired.discard((node, user))
        elif kind == "attachment_expired":
            key = (event.node_id, event.user_id)  # type: ignore[attr-defined]
            self._expired.add(key)
            self._expired_ms[key] = event.t_ms
            if self._attached.get(event.user_id) == event.node_id:  # type: ignore[attr-defined]
                # The lease evicted the user's *current* attachment: the
                # client must re-join before frames count as attached.
                self._attached.pop(event.user_id, None)  # type: ignore[attr-defined]
        elif kind == "frame_start":
            user = event.user_id  # type: ignore[attr-defined]
            node = event.node_id  # type: ignore[attr-defined]
            if self._node_dead(node):
                gap = event.t_ms - self._died_ms.get(node, event.t_ms)
                if gap > self.budgets.dead_grace_ms:
                    yield self._violation(
                        f"{user} still sending frames to {node} "
                        f"{gap:.0f}ms after it died (grace "
                        f"{self.budgets.dead_grace_ms:.0f}ms)",
                        index,
                        event.t_ms,
                        subject=user,
                    )
            key = (node, user)
            if key in self._expired:
                gap = event.t_ms - self._expired_ms[key]
                if gap > self.budgets.dead_grace_ms:
                    yield self._violation(
                        f"stranded admission: {user} still sending frames "
                        f"to {node} {gap:.0f}ms after its attachment "
                        f"expired without re-joining",
                        index,
                        event.t_ms,
                        subject=user,
                    )
            attached = self._attached.get(user)
            if attached is not None and attached != node:
                yield self._violation(
                    f"double-attach: {user} sent a frame to {node} while "
                    f"attached to {attached}",
                    index,
                    event.t_ms,
                    subject=user,
                )
        elif kind == "frame_done" and event.latency_ms is not None:  # type: ignore[attr-defined]
            node = event.node_id  # type: ignore[attr-defined]
            if self._node_dead(node):
                # A response already on the wire when the node died may
                # still arrive — only completions past the in-flight
                # grace indicate the node kept serving after death.
                gap = event.t_ms - self._died_ms.get(node, event.t_ms)
                if gap > self.budgets.dead_grace_ms:
                    yield self._violation(
                        f"frame completed on node {node} {gap:.0f}ms "
                        f"after it died for "
                        f"{event.user_id}",  # type: ignore[attr-defined]
                        index,
                        event.t_ms,
                        subject=event.user_id,  # type: ignore[attr-defined]
                    )

    def finish(self, end_ms: float) -> Iterator[Violation]:
        for user, node in sorted(self._attached.items()):
            if self._node_dead(node):
                yield self._violation(
                    f"{user} attached to dead node {node} at end of trace",
                    -1,
                    end_ms,
                    subject=user,
                )


# ----------------------------------------------------------------------
# Degraded fallback
# ----------------------------------------------------------------------
class DegradedFallbackCorrect(Invariant):
    """Degraded fallback only fires under manager unavailability.

    Evidence is any outage-family fault event (a blocked message, an
    ``outage_start``, or an open outage window — whole-manager or
    shard-targeted). A ``degraded_fallback`` with no open window and no
    evidence within ``degraded_slack_ms`` means the client abandoned a
    healthy control plane.
    """

    name = "degraded_fallback"

    def __init__(self, budgets: Budgets) -> None:
        super().__init__(budgets)
        self._open_windows = 0
        self._last_evidence_ms: Optional[float] = None

    def observe(self, index: int, event: TraceEvent) -> Iterator[Violation]:
        if event.type == "fault_injected":
            kind = getattr(event, "kind", "")
            if kind == "outage_start":
                self._open_windows += 1
                self._last_evidence_ms = event.t_ms
            elif kind == "outage_end":
                self._open_windows = max(0, self._open_windows - 1)
                self._last_evidence_ms = event.t_ms
            elif kind == "outage":
                self._last_evidence_ms = event.t_ms
        elif event.type == "degraded_fallback":
            if self._open_windows > 0:
                return
            last = self._last_evidence_ms
            if last is None or event.t_ms - last > self.budgets.degraded_slack_ms:
                since = (
                    "with no manager outage in the trace"
                    if last is None
                    else f"{event.t_ms - last:.0f}ms after the last outage "
                    f"evidence (slack {self.budgets.degraded_slack_ms:.0f}ms)"
                )
                yield self._violation(
                    f"{event.user_id}: degraded fallback {since}",  # type: ignore[attr-defined]
                    index,
                    event.t_ms,
                    subject=event.user_id,  # type: ignore[attr-defined]
                )


# ----------------------------------------------------------------------
# The suite
# ----------------------------------------------------------------------
def default_invariants(
    budgets: Budgets, *, expect_promotion: Optional[bool] = None
) -> List[Invariant]:
    """The full streaming suite, in check order."""
    return [
        NoSplitBrain(budgets),
        PromotionBudget(budgets, expect_promotion=expect_promotion),
        ClientStall(budgets),
        SeqMonotonic(budgets),
        AttachmentConsistency(budgets),
        DegradedFallbackCorrect(budgets),
    ]


def _as_event(item: EventSource) -> Optional[TraceEvent]:
    if isinstance(item, TraceEvent):
        return item
    if str(item.get("type", "")) not in EVENT_TYPES:
        return None  # forward compatibility: unknown tags are skipped
    return event_from_dict(item)


def check_events(
    events: Sequence[EventSource],
    *,
    budgets: Optional[Budgets] = None,
    time_scale: float = 1.0,
    expect_promotion: Optional[bool] = None,
    invariants: Optional[List[Invariant]] = None,
) -> List[Violation]:
    """Run the streaming invariant suite over one trace.

    Accepts either typed :class:`~repro.obs.events.TraceEvent` objects
    or wire-format dicts (one parsed JSONL line each). ``time_scale``
    rescales the budgets for wall-clock traces; ``expect_promotion``
    forces (or suppresses) the missing-promotion check when the
    caller knows the replica count. Returns all violations in trace
    order (end-of-trace conditions last).
    """
    if time_scale <= 0:
        raise ValueError(f"time_scale must be positive: {time_scale}")
    budgets = (budgets if budgets is not None else Budgets()).scaled(time_scale)
    suite = (
        invariants
        if invariants is not None
        else default_invariants(budgets, expect_promotion=expect_promotion)
    )
    violations: List[Violation] = []
    end_ms = 0.0
    for index, item in enumerate(events):
        event = _as_event(item)
        if event is None:
            continue
        end_ms = max(end_ms, event.t_ms)
        for invariant in suite:
            violations.extend(invariant.observe(index, event))
    for invariant in suite:
        violations.extend(invariant.finish(end_ms))
    return violations
