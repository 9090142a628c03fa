"""Predictive, history-aware selection policies.

Three policies the memoryless LO/GO baselines cannot express, built on
the observation feed of :mod:`repro.policy.base`:

- :class:`EwmaRttPolicy` — Holt double-exponential smoothing over each
  node's probed RTT; ranks on the *forecast* RTT one probing period
  ahead instead of the last sample, so a node whose latency is trending
  up loses its seat before the trend bites.
- :class:`ReliabilityPolicy` — multiplicative penalty that grows with
  recent failures, probe timeouts and gray behaviour (a node whose
  what-if projection suddenly jumps after looking cheap — the stale
  gray-cache signature) and decays exponentially, so repeat offenders
  stay demoted while a single old incident is eventually forgiven.
- :class:`ChurnAwarePolicy` — ranks like GO but orders the *backup*
  list by observed stability, so the first failover target is the
  backup least likely to be gone when it is finally needed.

All three are deterministic given their observation sequence; the
reliability policy additionally accepts a seed (its optional
exploration jitter draws only from it), so equal seeds replay equal
decisions — the property the hypothesis tests pin.
"""

from __future__ import annotations

from typing import ClassVar, Dict, List, Optional, Sequence, Tuple

from repro.messages import ProbeOutcome
from repro.policy.base import (
    CandidateChurn,
    FailoverObserved,
    NodeFailureObserved,
    PolicyObservation,
    ProbeObserved,
    ProbeTimeout,
    RankingContext,
    SelectionPolicy,
)

__all__ = ["ChurnAwarePolicy", "EwmaRttPolicy", "ReliabilityPolicy"]


class _DecayedMarks:
    """Per-node exponentially decayed incident mass.

    ``add(node, now, weight)`` deposits a mark; ``value(node, now)``
    reads the remaining mass after half-life decay. Lazy decay (stored
    as ``(mass, stamped_at)``) keeps updates O(1) and the state plain
    picklable data.
    """

    def __init__(self, half_life_ms: float) -> None:
        if half_life_ms <= 0:
            raise ValueError(f"half_life_ms must be positive: {half_life_ms}")
        self.half_life_ms = half_life_ms
        self._marks: Dict[str, Tuple[float, float]] = {}

    def _decayed(self, node_id: str, now: float) -> float:
        entry = self._marks.get(node_id)
        if entry is None:
            return 0.0
        mass, stamped_at = entry
        elapsed = max(0.0, now - stamped_at)
        return mass * 0.5 ** (elapsed / self.half_life_ms)

    def add(self, node_id: str, now: float, weight: float) -> None:
        self._marks[node_id] = (self._decayed(node_id, now) + weight, now)

    def value(self, node_id: str, now: float) -> float:
        return self._decayed(node_id, now)


# ----------------------------------------------------------------------
# EWMA / trend RTT forecasting
# ----------------------------------------------------------------------
class EwmaRttPolicy(SelectionPolicy):
    """Rank on forecast RTT-at-join instead of the last probe sample.

    Holt smoothing per node: level ``l`` tracks the RTT, trend ``b``
    its drift; the score is ``max(0, l + horizon * b) + what_if`` — the
    RTT we expect *by the time the join lands and frames flow*, plus
    the node's processing projection. A node never probed before scores
    exactly its measured LO, so the policy degrades to the LO baseline
    until history accumulates.

    Args:
        alpha: level smoothing factor in (0, 1].
        beta: trend smoothing factor in [0, 1].
        horizon: forecast steps ahead (in probing periods).
    """

    name: ClassVar[str] = "ewma"

    def __init__(
        self, alpha: float = 0.4, beta: float = 0.2, horizon: float = 1.0
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1]: {alpha}")
        if not 0.0 <= beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1]: {beta}")
        self.alpha = alpha
        self.beta = beta
        self.horizon = horizon
        self._level: Dict[str, float] = {}
        self._trend: Dict[str, float] = {}

    def observe(self, observation: PolicyObservation) -> None:
        if not isinstance(observation, ProbeObserved):
            return
        node_id = observation.outcome.node_id
        x = observation.outcome.d_prop_ms
        level = self._level.get(node_id)
        if level is None:
            self._level[node_id] = x
            self._trend[node_id] = 0.0
            return
        trend = self._trend[node_id]
        new_level = self.alpha * x + (1.0 - self.alpha) * (level + trend)
        self._trend[node_id] = (
            self.beta * (new_level - level) + (1.0 - self.beta) * trend
        )
        self._level[node_id] = new_level

    def forecast_rtt_ms(self, node_id: str, fallback: float) -> float:
        """The forecast RTT for one node (``fallback`` when unseen)."""
        level = self._level.get(node_id)
        if level is None:
            return fallback
        return max(0.0, level + self.horizon * self._trend[node_id])

    def score(self, outcome: ProbeOutcome, ctx: RankingContext) -> float:
        rtt = self.forecast_rtt_ms(outcome.node_id, outcome.d_prop_ms)
        return rtt + outcome.d_proc_ms


# ----------------------------------------------------------------------
# Reliability-discounted ranking
# ----------------------------------------------------------------------
class ReliabilityPolicy(SelectionPolicy):
    """GO ranking with a multiplicative unreliability penalty.

    Score: ``GO_j * (1 + min(max_penalty, suspicion_j))`` where
    ``suspicion_j`` is the node's decayed incident mass:

    - a **node failure** deposits ``failure_weight`` (a crash observed
      through a broken connection, or a backup found dead during the
      failover walk);
    - a **probe timeout** deposits ``timeout_weight`` (the node was
      expected to answer and did not);
    - **gray behaviour** deposits ``gray_weight`` — detected when a
      node's *per-capita* what-if projection (what-if divided by the
      projected user count) jumps above ``gray_ratio`` times its
      smoothed history: a gray node's slowdown multiplies its base
      service rate, while an honest population pile-up raises the raw
      what-if without moving the per-capita figure.

    Marks decay with ``half_life_ms``, so the policy forgives: a node
    that failed once long ago converges back to plain GO, while a
    repeat offender keeps a standing penalty — exactly the behaviour
    that beats LO under repeated ``node_crash`` churn, where LO re-joins
    the fastest node the moment it restarts and eats the next crash.

    Deterministic: given the same observation sequence (and seed, when
    ``explore_epsilon > 0``) every ranking is identical. The optional
    exploration draws from a private ``random.Random(seed)`` only.
    """

    name: ClassVar[str] = "reliability"

    def __init__(
        self,
        failure_weight: float = 3.0,
        timeout_weight: float = 1.0,
        gray_weight: float = 1.5,
        gray_ratio: float = 1.8,
        half_life_ms: float = 60_000.0,
        max_penalty: float = 8.0,
        explore_epsilon: float = 0.0,
        seed: Optional[int] = None,
    ) -> None:
        if gray_ratio <= 1.0:
            raise ValueError(f"gray_ratio must exceed 1: {gray_ratio}")
        if not 0.0 <= explore_epsilon < 1.0:
            raise ValueError(
                f"explore_epsilon must be in [0, 1): {explore_epsilon}"
            )
        self.failure_weight = failure_weight
        self.timeout_weight = timeout_weight
        self.gray_weight = gray_weight
        self.gray_ratio = gray_ratio
        self.max_penalty = max_penalty
        self.explore_epsilon = explore_epsilon
        self._marks = _DecayedMarks(half_life_ms)
        #: Smoothed what-if per node (gray-jump reference).
        self._what_if_ewma: Dict[str, float] = {}
        #: Exploration's seed: the constructor's, else the first one bound.
        self.seed = seed
        self._rng_state: Optional[object] = None

    # -- state ---------------------------------------------------------
    def bind_seed(self, seed: int) -> None:
        if self.seed is None:
            self.seed = seed

    def _rng_draw(self) -> float:
        import random

        rng = random.Random()
        if self._rng_state is None:
            rng.seed(self.seed if self.seed is not None else 0)
        else:
            rng.setstate(self._rng_state)  # type: ignore[arg-type]
        value = rng.random()
        self._rng_state = rng.getstate()
        return value

    def observe(self, observation: PolicyObservation) -> None:
        if isinstance(observation, NodeFailureObserved):
            self._marks.add(
                observation.node_id, observation.now, self.failure_weight
            )
        elif isinstance(observation, FailoverObserved):
            if not observation.accepted:
                self._marks.add(
                    observation.node_id, observation.now, self.failure_weight
                )
        elif isinstance(observation, ProbeTimeout):
            self._marks.add(
                observation.node_id, observation.now, self.timeout_weight
            )
        elif isinstance(observation, ProbeObserved):
            node_id = observation.outcome.node_id
            # Per-capita what-if: a gray slowdown multiplies the node's
            # base service rate, while a population pile-up raises the
            # raw what-if legitimately. Dividing by the projected user
            # count isolates the former from the latter.
            what_if = observation.outcome.d_proc_ms / (
                observation.outcome.attached_users + 1.0
            )
            smoothed = self._what_if_ewma.get(node_id)
            if smoothed is not None and smoothed > 0.0:
                if what_if > self.gray_ratio * smoothed:
                    # The cheap projection was a lie: gray behaviour.
                    self._marks.add(
                        node_id, observation.now, self.gray_weight
                    )
            if smoothed is None:
                self._what_if_ewma[node_id] = what_if
            else:
                self._what_if_ewma[node_id] = 0.7 * smoothed + 0.3 * what_if

    # -- ranking -------------------------------------------------------
    def suspicion(self, node_id: str, now: float) -> float:
        """The decayed incident mass currently held against a node."""
        return self._marks.value(node_id, now)

    def penalty_factor(self, node_id: str, now: float) -> float:
        factor = 1.0 + min(self.max_penalty, self.suspicion(node_id, now))
        if self.explore_epsilon > 0.0 and factor > 1.0:
            if self._rng_draw() < self.explore_epsilon:
                # Seeded exploration: occasionally halve the penalty so
                # a recovered node can win back traffic sooner.
                factor = 1.0 + (factor - 1.0) / 2.0
        return factor

    def score(self, outcome: ProbeOutcome, ctx: RankingContext) -> float:
        return outcome.global_overhead_ms * self.penalty_factor(
            outcome.node_id, ctx.now
        )


# ----------------------------------------------------------------------
# Churn-aware backup ordering
# ----------------------------------------------------------------------
class ChurnAwarePolicy(SelectionPolicy):
    """GO ranking with stability-ordered backups.

    The primary choice stays the paper's GO optimum, but the adopted
    backup list — the failover walk order — is re-sorted by each
    node's decayed *instability* mass: vanishing from the candidate
    list, failing, or timing out probes all count against a node.
    Among equally stable backups the ranking order is preserved, so
    with no history the policy is bit-identical to GO.
    """

    name: ClassVar[str] = "churn"

    def __init__(
        self,
        vanish_weight: float = 1.0,
        failure_weight: float = 2.0,
        timeout_weight: float = 0.5,
        half_life_ms: float = 60_000.0,
    ) -> None:
        self.vanish_weight = vanish_weight
        self.failure_weight = failure_weight
        self.timeout_weight = timeout_weight
        self._marks = _DecayedMarks(half_life_ms)

    def observe(self, observation: PolicyObservation) -> None:
        if isinstance(observation, CandidateChurn):
            for node_id in observation.vanished:
                self._marks.add(node_id, observation.now, self.vanish_weight)
        elif isinstance(observation, NodeFailureObserved):
            self._marks.add(
                observation.node_id, observation.now, self.failure_weight
            )
        elif isinstance(observation, FailoverObserved):
            if not observation.accepted:
                self._marks.add(
                    observation.node_id, observation.now, self.failure_weight
                )
        elif isinstance(observation, ProbeTimeout):
            self._marks.add(
                observation.node_id, observation.now, self.timeout_weight
            )

    def instability(self, node_id: str, now: float) -> float:
        """The decayed instability mass currently held against a node."""
        return self._marks.value(node_id, now)

    def score(self, outcome: ProbeOutcome, ctx: RankingContext) -> float:
        return outcome.global_overhead_ms

    def order_backups(
        self, ranked_rest: Sequence[ProbeOutcome], ctx: RankingContext
    ) -> Tuple[ProbeOutcome, ...]:
        indexed: List[Tuple[float, int, ProbeOutcome]] = [
            (self.instability(o.node_id, ctx.now), i, o)
            for i, o in enumerate(ranked_rest)
        ]
        indexed.sort(key=lambda item: (item[0], item[1]))
        return tuple(o for _, _, o in indexed)
