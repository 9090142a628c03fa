"""Property tests for the predictive selection policies.

Two families of invariants:

- **Determinism**: a policy fed the same observation sequence (and
  seed) twice produces identical rankings — the property that makes
  sim runs replayable and the live runtime debuggable.
- **Monotonicity**: strictly worse history never improves a node's
  standing. Scaling a node's RTT history up cannot move its EWMA rank
  forward; an extra failure cannot move its reliability rank forward;
  an extra vanish cannot move its backup slot forward.
"""

from __future__ import annotations

import copy
from typing import List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.messages import ProbeOutcome
from repro.policy import (
    ChurnAwarePolicy,
    EwmaRttPolicy,
    RankingContext,
    ReliabilityPolicy,
)
from repro.policy.base import (
    CandidateChurn,
    NodeFailureObserved,
    ProbeObserved,
)

NODE_POOL = ["n1", "n2", "n3", "n4"]

delays = st.floats(min_value=0.1, max_value=400.0, allow_nan=False)


def outcome(node_id: str, d_prop: float, d_proc: float) -> ProbeOutcome:
    return ProbeOutcome(
        node_id=node_id,
        d_prop_ms=d_prop,
        d_proc_ms=d_proc,
        seq_num=0,
        attached_users=0,
        current_proc_ms=d_proc,
        stay_ms=d_proc,
    )


@st.composite
def observation_rounds(draw, min_rounds=1, max_rounds=6):
    """Rounds of probe observations over the node pool: a list of
    ``(now, [(node_id, d_prop, d_proc), ...])`` with increasing time."""
    n_rounds = draw(st.integers(min_value=min_rounds, max_value=max_rounds))
    rounds = []
    for i in range(n_rounds):
        nodes = draw(
            st.lists(
                st.sampled_from(NODE_POOL), min_size=1, max_size=4, unique=True
            )
        )
        samples = [(n, draw(delays), draw(delays)) for n in nodes]
        rounds.append((2_000.0 * (i + 1), samples))
    return rounds


def feed(policy, rounds) -> None:
    for now, samples in rounds:
        for node_id, d_prop, d_proc in samples:
            policy.observe(
                ProbeObserved(now, outcome(node_id, d_prop, d_proc))
            )


def final_ranking(policy, rounds) -> Tuple[str, ...]:
    now, samples = rounds[-1]
    outcomes = [outcome(n, dp, dq) for n, dp, dq in samples]
    ranking = policy.rank(outcomes, RankingContext(now=now + 1.0))
    return tuple(o.node_id for o in ranking.ranked)


# ----------------------------------------------------------------------
# Determinism under the same seed / observation sequence
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(observation_rounds())
def test_ewma_is_deterministic(rounds):
    a, b = EwmaRttPolicy(), EwmaRttPolicy()
    feed(a, rounds)
    feed(b, rounds)
    assert final_ranking(a, rounds) == final_ranking(b, rounds)


@settings(max_examples=100, deadline=None)
@given(observation_rounds(), st.integers(min_value=0, max_value=2**31))
def test_reliability_exploration_is_seed_deterministic(rounds, seed):
    """Even with exploration jitter on, equal seeds replay equal
    decisions — consecutive draws advance identically on both sides."""
    a = ReliabilityPolicy(explore_epsilon=0.3, seed=seed)
    b = ReliabilityPolicy(explore_epsilon=0.3, seed=seed)
    for policy in (a, b):
        feed(policy, rounds)
        for node in NODE_POOL[:2]:
            policy.observe(
                NodeFailureObserved(now=1.0, node_id=node, serving=False)
            )
    for _ in range(3):  # repeated rankings consume the RNG identically
        assert final_ranking(a, rounds) == final_ranking(b, rounds)


@settings(max_examples=100, deadline=None)
@given(observation_rounds())
def test_churn_is_deterministic(rounds):
    a, b = ChurnAwarePolicy(), ChurnAwarePolicy()
    vanish = CandidateChurn(now=1.0, appeared=(), vanished=("n1", "n3"))
    for policy in (a, b):
        feed(policy, rounds)
        policy.observe(vanish)
    assert final_ranking(a, rounds) == final_ranking(b, rounds)


# ----------------------------------------------------------------------
# Monotonicity: worse history never improves rank
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(
    observation_rounds(),
    st.sampled_from(NODE_POOL),
    st.floats(min_value=1.0, max_value=5.0, allow_nan=False),
)
def test_ewma_worse_rtt_history_never_improves_rank(rounds, victim, scale):
    """Multiplying one node's entire RTT history by >= 1 can only move
    it backwards (or keep it in place) in the final ranking."""
    base = EwmaRttPolicy()
    feed(base, rounds)
    worse = EwmaRttPolicy()
    worse_rounds = [
        (
            now,
            [
                (n, d_prop * scale if n == victim else d_prop, d_proc)
                for n, d_prop, d_proc in samples
            ],
        )
        for now, samples in rounds
    ]
    feed(worse, worse_rounds)
    ranked_base = final_ranking(base, rounds)
    ranked_worse = final_ranking(worse, rounds)
    if victim in ranked_base:
        assert ranked_worse.index(victim) >= ranked_base.index(victim)


@settings(max_examples=100, deadline=None)
@given(observation_rounds(), st.sampled_from(NODE_POOL))
def test_reliability_extra_failure_never_improves_rank(rounds, victim):
    base = ReliabilityPolicy()
    feed(base, rounds)
    worse = copy.deepcopy(base)
    now = rounds[-1][0]
    worse.observe(NodeFailureObserved(now=now, node_id=victim, serving=True))
    ranked_base = final_ranking(base, rounds)
    ranked_worse = final_ranking(worse, rounds)
    if victim in ranked_base:
        assert ranked_worse.index(victim) >= ranked_base.index(victim)


@settings(max_examples=100, deadline=None)
@given(observation_rounds(), st.sampled_from(NODE_POOL))
def test_churn_extra_vanish_never_improves_backup_slot(rounds, victim):
    base = ChurnAwarePolicy()
    feed(base, rounds)
    worse = copy.deepcopy(base)
    now, samples = rounds[-1]
    worse.observe(CandidateChurn(now=now, appeared=(), vanished=(victim,)))
    ctx = RankingContext(now=now + 1.0)
    rest = [outcome(n, dp, dq) for n, dp, dq in samples]
    order_base = [o.node_id for o in base.order_backups(tuple(rest), ctx)]
    order_worse = [o.node_id for o in worse.order_backups(tuple(rest), ctx)]
    if victim in order_base:
        assert order_worse.index(victim) >= order_base.index(victim)
    # ...and nodes with equal instability keep their ranking order.
    others = [n for n in order_base if n != victim]
    assert [n for n in order_worse if n != victim] == others
