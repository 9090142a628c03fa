"""The selection-policy contract: pure, sans-IO candidate ranking.

A :class:`SelectionPolicy` is the pluggable brain the
:class:`~repro.protocol.selection.SelectionMachine` consults twice per
selection round: once to **rank** the probed candidates (with a score
per candidate, so dwell/hysteresis and the ``policy_decision`` trace
event speak the same currency as the ranking) and once to **order the
backups** adopted from the ranked tail. Between rounds the machine
feeds the policy typed **observations** — answered probes, probe
timeouts, node failures, failover outcomes, degraded discoveries,
candidate churn, attachments — which is how history-aware policies
accumulate the per-node state the paper's memoryless LO/GO ranking
lacks.

Contract:

- **Pure and sans-IO.** A policy never reads a clock (every entry point
  carries ``now``), never touches a socket or the simulator, and draws
  randomness only from a seed handed to :meth:`SelectionPolicy.bind_seed`
  — the same discipline as the protocol machines, so sim/live parity
  and trace replay carry over.
- **Scores are "predicted milliseconds, lower is better".** The machine
  compares the current edge's score against the best candidate's score
  for hysteresis, so scores must be on the latency scale the switch
  margins (``switch_penalty_ms``) are expressed in.
- **Deterministic tie-break.** :meth:`SelectionPolicy.rank` orders by
  ``(score, node_id)`` so equal scores cannot make two runs diverge.
- **Picklable.** Per-node policy state rides inside the machine's
  picklable state (sweep resumability); policies must therefore hold
  only plain data — no lambdas, no open handles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, List, Mapping, Optional, Sequence, Tuple, Union

from repro.messages import ProbeOutcome

__all__ = [
    "AttachmentObserved",
    "CandidateChurn",
    "DegradedDiscovery",
    "FailoverObserved",
    "NodeFailureObserved",
    "PolicyObservation",
    "ProbeObserved",
    "ProbeTimeout",
    "Ranking",
    "RankingContext",
    "SelectionPolicy",
]


# ----------------------------------------------------------------------
# Typed observations (machine -> policy)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ProbeObserved:
    """One candidate answered its probe (the raw measurement, before any
    stay-substitution the ranking applies)."""

    now: float
    outcome: ProbeOutcome


@dataclass(frozen=True)
class ProbeTimeout:
    """A probed candidate never answered — dead, partitioned, or gray
    enough to drop probes."""

    now: float
    node_id: str


@dataclass(frozen=True)
class NodeFailureObserved:
    """A broken connection revealed a node failure. ``serving`` is True
    when it was the client's current edge (a user-visible outage)."""

    now: float
    node_id: str
    serving: bool


@dataclass(frozen=True)
class FailoverObserved:
    """One step of the failover walk: the backup accepted or was dead too."""

    now: float
    node_id: str
    accepted: bool


@dataclass(frozen=True)
class DegradedDiscovery:
    """The Central Manager was unreachable; the round fell back to
    cached candidates (a manager-side reliability signal)."""

    now: float
    reason: str


@dataclass(frozen=True)
class CandidateChurn:
    """The discovery answer changed: ``appeared`` entered the candidate
    list, ``vanished`` silently left it (node died, moved away, or was
    outcompeted — either way a stability signal)."""

    now: float
    appeared: Tuple[str, ...]
    vanished: Tuple[str, ...]


@dataclass(frozen=True)
class AttachmentObserved:
    """The client attached to a node (``via`` is ``"join"`` or
    ``"failover"``)."""

    now: float
    node_id: str
    via: str


PolicyObservation = Union[
    ProbeObserved,
    ProbeTimeout,
    NodeFailureObserved,
    FailoverObserved,
    DegradedDiscovery,
    CandidateChurn,
    AttachmentObserved,
]


# ----------------------------------------------------------------------
# Ranking input/output
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RankingContext:
    """What the machine knows at ranking time."""

    now: float
    current_edge: Optional[str] = None


@dataclass(frozen=True)
class Ranking:
    """A ranking verdict: candidates best-first plus the score that put
    each one there (``node_id -> predicted ms``). Candidates a policy
    filtered out (QoS) appear in neither."""

    ranked: Tuple[ProbeOutcome, ...]
    scores: Mapping[str, float] = field(default_factory=dict)

    def score_of(self, node_id: Optional[str]) -> Optional[float]:
        if node_id is None:
            return None
        return self.scores.get(node_id)


# ----------------------------------------------------------------------
# The policy base class
# ----------------------------------------------------------------------
class SelectionPolicy:
    """Base class for local selection policies.

    Subclasses typically override only :meth:`score` (and
    :meth:`observe` when history-aware); :meth:`rank` then provides the
    deterministic ``(score, node_id)`` ordering. Policies that reorder
    the adopted backup list override :meth:`order_backups`.
    """

    #: Registry key and the label stamped into ``policy_decision`` events.
    name: ClassVar[str] = "base"

    # -- ranking -------------------------------------------------------
    def score(self, outcome: ProbeOutcome, ctx: RankingContext) -> float:
        """Predicted cost of joining ``outcome.node_id`` (ms, lower wins)."""
        raise NotImplementedError

    def eligible(
        self, outcomes: Sequence[ProbeOutcome], ctx: RankingContext
    ) -> List[ProbeOutcome]:
        """Admission filter applied before scoring (QoS cut; default: all)."""
        return list(outcomes)

    def rank(
        self, outcomes: Sequence[ProbeOutcome], ctx: RankingContext
    ) -> Ranking:
        """Rank candidates best-first with deterministic tie-break."""
        scored = sorted(
            ((self.score(o, ctx), o.node_id, o) for o in self.eligible(outcomes, ctx)),
            key=lambda item: (item[0], item[1]),
        )
        return Ranking(
            ranked=tuple(o for _, _, o in scored),
            scores={node_id: s for s, node_id, _ in scored},
        )

    def order_backups(
        self, ranked_rest: Sequence[ProbeOutcome], ctx: RankingContext
    ) -> Tuple[ProbeOutcome, ...]:
        """Order the candidates adopted as backups (best failover target
        first). Default: keep the ranking order — bit-identical to the
        pre-policy machine."""
        return tuple(ranked_rest)

    # -- state ---------------------------------------------------------
    def observe(self, observation: PolicyObservation) -> None:
        """Fold one typed observation into per-node state (default: none)."""

    def bind_seed(self, seed: int) -> None:
        """Hand the policy its private random universe (default: unused).

        Called once by the driver before the first round; policies that
        use randomness must derive it *only* from this seed so equal
        seeds replay identical decisions.
        """
