"""The client selection round as a sans-IO state machine (Algorithm 2).

One :class:`SelectionMachine` holds every *decision* the paper puts on
the client: when to discover, which candidates to probe, the candidate
ranking and backup ordering (via an injected
:class:`~repro.policy.base.SelectionPolicy`), dwell and hysteresis
gating on voluntary switches, the seqNum-echoing join with
repeat-from-discovery on rejection, backup adoption (Algorithm 2 line
20), and the failover walk over ``Unexpected_join`` with the
covered/uncovered distinction of Fig. 10b.

The machine is also the policy's *sensor*: every protocol transition
that carries information about a node — an answered or timed-out
probe, a broken connection, a failover verdict, a changed candidate
list, a degraded discovery — is forwarded to the policy as a typed
observation (:mod:`repro.policy.base`), which is how history-aware
policies accumulate per-node state without ever touching I/O. Dwell
and hysteresis compare **policy scores** (not raw probe RTTs), so the
switch margin is always expressed in the same currency the ranking
used and the two can never disagree about which node is better.

The machine is pure protocol: it consumes
:mod:`~repro.protocol.events` (each carrying an explicit ``now``) and
returns :mod:`~repro.protocol.effects` — it never reads a clock, sends
a message, or touches the simulator kernel. The sim backend
(:class:`repro.core.client.EdgeClient`) and the live asyncio backend
(:class:`repro.runtime.client_runtime.LiveClient`) are thin drivers
over the *same* instance of this logic, which is what makes their
decision traces comparable event-for-event.

A subtle consequence that used to be backend-dependent: commit of the
chosen edge and adoption of the backup list happen **atomically inside
one** :meth:`SelectionMachine.handle` **call** (the join-accept
transition). An edge that dies immediately after its join-accept is
therefore always covered by the just-adopted backups — on both
backends — instead of racing a driver that had attached but not yet
adopted.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.messages import ProbeOutcome
from repro.obs.events import (
    CoveredFailover,
    DegradedFallback,
    DiscoveryIssued,
    DiscoveryReturned,
    JoinAccept,
    JoinAttempt,
    JoinReject,
    PolicyDecision,
    Switch,
    UncoveredFailure,
)
from repro.policy.base import (
    AttachmentObserved,
    CandidateChurn,
    DegradedDiscovery,
    FailoverObserved,
    NodeFailureObserved,
    ProbeObserved,
    ProbeTimeout,
    Ranking,
    RankingContext,
    SelectionPolicy,
)
from repro.protocol.effects import (
    Attached,
    Effect,
    EmitTrace,
    FlushBacklog,
    ProbeCandidates,
    SendDiscovery,
    SendFailoverJoin,
    SendJoin,
    SendLeave,
    StartTimer,
    UpdateBackups,
)
from repro.protocol.events import (
    CandidatesReceived,
    DiscoveryFailed,
    EdgeFailed,
    FailoverResult,
    JoinResult,
    ProbesCompleted,
    ProtocolEvent,
    RoundStarted,
)
from repro.protocol.failure_monitor import FailureMonitor

__all__ = ["SelectionConfig", "SelectionMachine", "join_or_stay"]


#: How many times a round repeats discovery and probing after consecutive
#: Join rejections before it concludes as failed (a detached client then
#: retries after ``retry_delay_ms``; an attached one waits for the next
#: round).
MAX_DISCOVERY_RETRIES = 3


def _never() -> bool:
    return False


@dataclass(frozen=True)
class SelectionConfig:
    """The protocol constants one selection machine runs with.

    A plain value object (not ``SystemConfig``) so the machine stays
    importable without the simulation stack; drivers build it from
    their own configuration.
    """

    top_n: int = 3
    min_dwell_ms: float = 5_000.0
    #: Hysteresis: a voluntary switch needs a candidate scoring below the
    #: current node's score less ``switch_penalty_fraction`` of it less
    #: ``switch_penalty_ms``. The two margins together stop flapping
    #: between near-equal nodes and herd reshuffling when many nodes sit
    #: near the same score.
    switch_penalty_ms: float = 5.0
    switch_penalty_fraction: float = 0.15
    retry_delay_ms: float = 500.0

    def switch_threshold(self, current_score: float) -> float:
        """The score a candidate must beat (``<``) to take a user off a
        node scoring ``current_score``: both margins at once."""
        return (
            current_score * (1.0 - self.switch_penalty_fraction)
            - self.switch_penalty_ms
        )

    def settled(self, now_ms: Any, joined_ms: Any) -> Any:
        """The dwell gate: a join at ``joined_ms`` has settled by ``now_ms``.
        Plain arithmetic, so it broadcasts; a detached ``-inf`` is settled."""
        return now_ms - joined_ms >= self.min_dwell_ms


def join_or_stay(
    config: SelectionConfig,
    ranked: Sequence[int],
    scores: Sequence[float],
    current: int,
    settled: bool,
) -> Tuple[int, Sequence[int]]:
    """One round's verdict over a non-empty ranking: the candidate the
    client ends on, and the rest of ``ranked`` (best first) it adopts its
    backups from. ``SelectionMachine`` and the metro kernel both decide
    with it.

    ``ranked`` holds candidate indices best first and ``scores[i]`` is
    candidate ``i``'s policy score; ``current`` is the client's node among
    them, -1 when it is detached or its node is no candidate. It joins
    ``ranked[0]`` unless it stays on ``current``: its join has not
    ``settled`` (the dwell; a detached client always has), or the best is
    its node already or misses the hysteresis of its node's score.
    """
    best = ranked[0]
    if not settled or current >= 0 and (
        best == current
        or scores[best] >= config.switch_threshold(scores[current])
    ):
        best = current
    if best == ranked[0]:
        return best, ranked[1:]
    return best, [i for i in ranked if i != best]


class SelectionMachine:
    """Sans-IO client selection: events in, effects out.

    Args:
        user_id: the client's id (stamped into trace events).
        policy: this client's own
            :class:`~repro.policy.base.SelectionPolicy` instance.
        config: protocol constants (dwell, hysteresis, retry delay).
        detail_guard: zero-arg callable gating *detail* trace events
            (``JoinAttempt``, ``DiscoveryReturned``,
            ``PolicyDecision``) — drivers pass
            ``lambda: tracer.enabled`` so disabled capture never even
            constructs them. Decision verdicts are always emitted.
    """

    def __init__(
        self,
        user_id: str,
        policy: SelectionPolicy,
        config: SelectionConfig,
        *,
        detail_guard: Callable[[], bool] = _never,
    ) -> None:
        self.user_id = user_id
        self._policy = policy
        self.config = config
        #: Live robustness knob (§IV-E): adaptive controllers may move it.
        self.top_n = config.top_n
        self.current_edge: Optional[str] = None
        self.monitor = FailureMonitor()
        #: Last successfully received candidate list — the degraded
        #: fallback pool when the Central Manager becomes unreachable.
        self.last_candidates: Tuple[str, ...] = ()
        self.round_in_progress = False
        self.last_join_ms = float("-inf")
        self._retries = 0
        #: The join in flight: the outcome sent, and the rest of the
        #: ranking its backups come from once it is accepted.
        self._joining: Tuple[Optional[ProbeOutcome], List[ProbeOutcome]] = (None, [])
        #: Nodes the current round asked to probe — whoever does not
        #: answer is reported to the policy as a probe timeout.
        self._probe_targets: Tuple[str, ...] = ()
        self._detail_guard = detail_guard

    @property
    def attached(self) -> bool:
        return self.current_edge is not None

    @property
    def policy(self) -> SelectionPolicy:
        return self._policy

    # ------------------------------------------------------------------
    # Pickling: per-node policy state is part of the machine's state;
    # the detail guard is a driver-owned closure and is dropped (a
    # restored machine emits no detail events until a driver rewires it).
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state["_detail_guard"] = None
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        if state.get("_detail_guard") is None:
            self._detail_guard = _never

    # ------------------------------------------------------------------
    def handle(self, event: ProtocolEvent) -> List[Effect]:
        """Advance the machine by one input event; return the effects."""
        if isinstance(event, RoundStarted):
            return self._on_round_started(event)
        if isinstance(event, CandidatesReceived):
            return self._on_candidates(event)
        if isinstance(event, DiscoveryFailed):
            return self._on_discovery_failed(event)
        if isinstance(event, ProbesCompleted):
            return self._on_probes_completed(event)
        if isinstance(event, JoinResult):
            return self._on_join_result(event)
        if isinstance(event, EdgeFailed):
            return self._on_edge_failed(event)
        if isinstance(event, FailoverResult):
            return self._on_failover_result(event)
        raise TypeError(f"SelectionMachine cannot handle {type(event).__name__}")

    # ------------------------------------------------------------------
    # Round lifecycle
    # ------------------------------------------------------------------
    def _on_round_started(self, event: RoundStarted) -> List[Effect]:
        if self.round_in_progress:
            return []
        self.round_in_progress = True
        self._retries = 0
        return self._discover(event.now)

    def _discover(self, now: float, exclude: Tuple[str, ...] = ()) -> List[Effect]:
        """One discovery round trip (always traced: it is a decision)."""
        return [
            EmitTrace(DiscoveryIssued(now, self.user_id)),
            SendDiscovery(top_n=self.top_n, exclude=exclude),
        ]

    def _conclude_round(self, failed: bool) -> List[Effect]:
        """Close the round; while detached, arm a short retry timer."""
        self.round_in_progress = False
        if failed and not self.attached:
            return [StartTimer("retry_round", self.config.retry_delay_ms)]
        return []

    def _on_candidates(self, event: CandidatesReceived) -> List[Effect]:
        effects: List[Effect] = []
        if self._detail_guard():
            effects.append(
                EmitTrace(
                    DiscoveryReturned(
                        event.now,
                        self.user_id,
                        event.node_ids,
                        widened=event.widened,
                    )
                )
            )
        if not event.node_ids:
            # Nothing available: end the round; the periodic timer (or a
            # short retry while detached) tries again.
            return effects + self._conclude_round(failed=True)
        previous = self.last_candidates
        incoming = tuple(event.node_ids)
        if previous:
            appeared = tuple(n for n in incoming if n not in previous)
            vanished = tuple(n for n in previous if n not in incoming)
            if appeared or vanished:
                self._policy.observe(
                    CandidateChurn(event.now, appeared, vanished)
                )
        self.last_candidates = incoming
        node_ids = list(event.node_ids)
        # Algorithm 2 line 12 compares C[0] against Current, so Current is
        # always probed — even when the manager's availability sort
        # dropped it from the list (a node loaded by *this* user scores
        # low on availability, which must not force a blind switch).
        if self.current_edge is not None and self.current_edge not in node_ids:
            node_ids.append(self.current_edge)
        self._probe_targets = tuple(node_ids)
        effects.append(ProbeCandidates(tuple(node_ids)))
        return effects

    def _on_discovery_failed(self, event: DiscoveryFailed) -> List[Effect]:
        """Graceful degradation: the manager is unreachable.

        Instead of stalling the round until the manager returns, probe
        the last known candidate list plus the adopted backups (and the
        current edge) — every one of them was reachable recently, which
        is the best information a cut-off client has. The round then
        proceeds normally over whichever of them still answer.
        """
        if not self.round_in_progress:
            return []
        fallback: List[str] = []
        for node_id in (
            *self.last_candidates,
            *self.monitor.backups,
            *((self.current_edge,) if self.current_edge is not None else ()),
        ):
            if node_id not in fallback:
                fallback.append(node_id)
        if not fallback:
            # Nothing cached either (first round of a fresh client):
            # behave like an empty discovery — retry shortly.
            return self._conclude_round(failed=True)
        self._policy.observe(DegradedDiscovery(event.now, event.reason))
        self._probe_targets = tuple(fallback)
        return [
            EmitTrace(
                DegradedFallback(
                    event.now, self.user_id, event.reason, tuple(fallback)
                )
            ),
            ProbeCandidates(tuple(fallback)),
        ]

    # ------------------------------------------------------------------
    # Ranking, dwell, hysteresis, join
    # ------------------------------------------------------------------
    def _on_probes_completed(self, event: ProbesCompleted) -> List[Effect]:
        outcomes: List[ProbeOutcome] = list(event.outcomes)
        # Feed the policy the raw measurements (pre stay-substitution)
        # plus the silence of whoever was probed and never answered.
        answered = set()
        for outcome in outcomes:
            answered.add(outcome.node_id)
            self._policy.observe(ProbeObserved(event.now, outcome))
        for node_id in self._probe_targets:
            if node_id not in answered:
                self._policy.observe(ProbeTimeout(event.now, node_id))
        self._probe_targets = ()
        # For the node we are already attached to, the question is not
        # "what if one more user joins" (we are one of its n users) but
        # "what do I get by staying at my full rate" — the stay
        # projection the probe reply carries. Substituting it before
        # ranking removes a systematic bias against staying put without
        # letting adaptive throttling mask overload.
        if self.attached:
            outcomes = [
                replace(o, d_proc_ms=o.stay_ms)
                if o.node_id == self.current_edge
                else o
                for o in outcomes
            ]
        ctx = RankingContext(now=event.now, current_edge=self.current_edge)
        ranking: Ranking = self._policy.rank(outcomes, ctx)
        ranked = list(ranking.ranked)
        effects: List[Effect] = []
        if ranked and self._detail_guard():
            effects.append(
                EmitTrace(
                    PolicyDecision(
                        event.now,
                        self.user_id,
                        self._policy.name,
                        tuple(o.node_id for o in ranked),
                        tuple(
                            ranking.scores.get(o.node_id, 0.0) for o in ranked
                        ),
                    )
                )
            )
        if not ranked:
            # No candidate satisfies QoS / all candidates dead.
            return self._conclude_round(failed=True)
        # A voluntary switch waits out the dwell after the last join, then
        # must clear hysteresis on *policy scores* — the currency the
        # ranking sorted by — so a policy whose score is not raw LO (GO, a
        # predictive forecast, ...) cannot disagree with its own gate.
        ids = [o.node_id for o in ranked]
        current = ids.index(self.current_edge) if self.current_edge in ids else -1
        end, rest = join_or_stay(
            self.config,
            range(len(ranked)),
            [ranking.scores.get(o.node_id, o.local_overhead_ms) for o in ranked],
            current,
            not self.attached or self.config.settled(event.now, self.last_join_ms),
        )
        if end == current:
            return (
                effects
                + self._adopt_backups([ranked[i] for i in rest], ctx)
                + self._conclude_round(failed=False)
            )
        self._joining = (ranked[end], [ranked[i] for i in rest])
        return effects + [SendJoin(ranked[end])]

    def _on_join_result(self, event: JoinResult) -> List[Effect]:
        joined, rest = self._joining
        self._joining = (None, [])
        effects: List[Effect] = []
        if self._detail_guard():
            effects.append(
                EmitTrace(JoinAttempt(event.attempted_at, self.user_id, event.node_id))
            )
        if not event.accepted:
            effects.append(
                EmitTrace(JoinReject(event.now, self.user_id, event.node_id))
            )
            # Rejected (state changed): repeat from the discovery step.
            self._retries += 1
            if self._retries <= MAX_DISCOVERY_RETRIES:
                return effects + self._discover(event.now)
            return effects + self._conclude_round(failed=True)
        effects.append(EmitTrace(JoinAccept(event.now, self.user_id, event.node_id)))
        self._policy.observe(
            AttachmentObserved(event.now, event.node_id, via="join")
        )
        previous = self.current_edge
        if previous is not None and previous != event.node_id:
            effects.append(SendLeave(previous, "switch"))
            effects.append(
                EmitTrace(
                    Switch(
                        event.now,
                        self.user_id,
                        from_node=previous,
                        to_node=event.node_id,
                    )
                )
            )
        self.current_edge = event.node_id
        self.last_join_ms = event.now
        effects.append(
            Attached(
                event.node_id,
                joined.d_prop_ms if joined is not None else 0.0,
                previous,
                via="join",
            )
        )
        # Committing the edge and adopting its backups in the same
        # transition closes the join-accept/backup-adoption race (see
        # module docstring).
        effects.extend(
            self._adopt_backups(
                rest, RankingContext(now=event.now, current_edge=self.current_edge)
            )
        )
        effects.extend(self._conclude_round(failed=False))
        if previous is None:
            effects.append(FlushBacklog())
        return effects

    # ------------------------------------------------------------------
    # Backups (Algorithm 2 line 20)
    # ------------------------------------------------------------------
    def _adopt_backups(
        self, ranked_rest: Sequence[ProbeOutcome], ctx: RankingContext
    ) -> List[Effect]:
        backup_count = max(0, self.top_n - 1)
        ordered = self._policy.order_backups(tuple(ranked_rest), ctx)
        adopted = list(ordered[:backup_count])
        self.monitor.update_backups([o.node_id for o in adopted])
        return [UpdateBackups(tuple(adopted))]

    # ------------------------------------------------------------------
    # Failure handling (§IV-E)
    # ------------------------------------------------------------------
    def _on_edge_failed(self, event: EdgeFailed) -> List[Effect]:
        self._policy.observe(
            NodeFailureObserved(
                event.now,
                event.node_id,
                serving=event.node_id == self.current_edge,
            )
        )
        if event.node_id != self.current_edge:
            self.monitor.remove(event.node_id)
            return []
        self.current_edge = None
        return self._next_failover(event.now)

    def _next_failover(self, now: float) -> List[Effect]:
        """Walk the backup list; uncovered falls back to re-discovery."""
        backup_id = self.monitor.next_backup()
        if backup_id is not None:
            return [SendFailoverJoin(backup_id)]
        self.monitor.note_uncovered()
        effects: List[Effect] = [EmitTrace(UncoveredFailure(now, self.user_id))]
        if not self.round_in_progress:
            # Reactive reconnect: pay full re-discovery.
            self.round_in_progress = True
            self._retries = 0
            effects.extend(self._discover(now))
        return effects

    def _on_failover_result(self, event: FailoverResult) -> List[Effect]:
        self._policy.observe(
            FailoverObserved(event.now, event.node_id, event.accepted)
        )
        if not event.accepted:
            # This backup is dead too: try the next one.
            return self._next_failover(event.now)
        self._policy.observe(
            AttachmentObserved(event.now, event.node_id, via="failover")
        )
        self.monitor.note_covered()
        self.current_edge = event.node_id
        self.last_join_ms = event.now
        return [
            EmitTrace(CoveredFailover(event.now, self.user_id, event.node_id)),
            Attached(event.node_id, event.rtt_ms, None, via="failover"),
            FlushBacklog(),
        ]

    def __repr__(self) -> str:
        return (
            f"SelectionMachine({self.user_id}, edge={self.current_edge}, "
            f"backups={self.monitor.backups})"
        )
