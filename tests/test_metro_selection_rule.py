"""Metro's per-user selection rule is ``SelectionMachine``'s.

Both decide a round with ``repro.protocol.selection.join_or_stay``.
``repro.metro.kernel.reselect_row`` is metro's side for a user past its
dwell: join or stay, and which backups it adopts. Here it is held to a
``SelectionMachine`` running the client-centric method's policy (GO, the
``SystemConfig`` default) and LO over the same candidates and scores,
driven through ``RoundStarted`` -> ``CandidatesReceived`` ->
``ProbesCompleted`` (and the accepting ``JoinResult`` when it joins).
Inside the dwell metro's round does not score the user at all (its due
filter is ``SelectionConfig.settled``): it stays, as the machine does,
and keeps the backups of its last join. Both sides are held to the dwell
boundary.
"""

from math import inf

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.config import SystemConfig
from repro.messages import ProbeOutcome
from repro.metro.kernel import MetroKernel, reselect_row
from repro.metro.spec import TICK_MS, MetroSpec, build_population
from repro.policy import build_policy
from repro.protocol.effects import SendJoin, UpdateBackups
from repro.protocol.events import (
    CandidatesReceived,
    JoinResult,
    ProbesCompleted,
    RoundStarted,
)
from repro.protocol.selection import SelectionConfig, SelectionMachine

#: A node the user is attached to that no candidate row holds (it died).
GONE = 99


def probed(node, score):
    """A probe whose LO and GO are exactly ``score``: no processing term,
    nobody attached, and the stay projection equal to it, so staying
    reads the same score."""
    return ProbeOutcome(
        node_id=f"n{node}", d_prop_ms=score, d_proc_ms=0.0, seq_num=0,
        attached_users=0, current_proc_ms=0.0, stay_ms=0.0,
    )


def machine_round(config, nodes, scores, current, joined_ms, now_ms, policy="go"):
    """The machine's verdict on one round under the registry policy
    ``policy``: the node it ends on (None when detached) and the backups
    it adopts."""
    machine = SelectionMachine("u0", build_policy(policy), config)
    if current >= 0:
        machine.current_edge, machine.last_join_ms = f"n{current}", joined_ms
    machine.handle(RoundStarted(now=now_ms))
    machine.handle(
        CandidatesReceived(now=now_ms, node_ids=tuple(f"n{n}" for n in nodes))
    )
    effects = machine.handle(
        ProbesCompleted(
            now=now_ms, outcomes=tuple(map(probed, nodes, scores))
        )
    )
    joins = [e.outcome.node_id for e in effects if isinstance(e, SendJoin)]
    if joins:
        effects = machine.handle(
            JoinResult(now=now_ms, node_id=joins[0], accepted=True, attempted_at=now_ms)
        )
    (adopted,) = [e for e in effects if isinstance(e, UpdateBackups)]
    return machine.current_edge, [o.node_id for o in adopted.outcomes]


def metro_round(config, nodes, scores, current, joined_ms, now_ms):
    """Metro's verdict in the same terms. Its round's due filter skips a
    user inside its dwell, which stays and keeps the backups it has
    (``None`` here); ``reselect_row`` decides for the rest."""
    if not config.settled(now_ms, joined_ms):
        return f"n{current}", None
    j, backups = reselect_row(config, list(nodes), np.array(scores), current)
    end = nodes[j] if j >= 0 else current
    return (f"n{end}" if end >= 0 else None), [f"n{b}" for b in backups]


@st.composite
def rounds(draw):
    size = draw(st.integers(min_value=1, max_value=8))
    nodes = draw(st.lists(st.integers(0, 20), min_size=size, max_size=size, unique=True))
    scores = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=500.0),
            min_size=size, max_size=size, unique=True,
        )
    )
    current = draw(st.sampled_from([-1, GONE, *nodes]))
    config = SelectionConfig(top_n=draw(st.integers(min_value=1, max_value=5)))
    if current < 0:
        return config, nodes, scores, current, -inf, draw(st.floats(0.0, 1e6))
    joined = draw(st.floats(min_value=0.0, max_value=1e6))
    since = draw(
        st.sampled_from([0.0, 4_999.0, 5_000.0, 5_001.0])
        | st.floats(min_value=0.0, max_value=20_000.0)
    )
    return config, nodes, scores, current, joined, joined + since


@settings(max_examples=500, deadline=None)
@given(rounds())
@example((SelectionConfig(), [0, 1], [100.0, 10.0], 0, 0.0, 5_000.0))
@example((SelectionConfig(), [0, 1], [30.0, 20.0], 0, 0.0, 9_000.0))
@example((SelectionConfig(), [3], [1.0], GONE, 0.0, 4_000.0))
@pytest.mark.parametrize("policy", [SystemConfig().policy_spec, "lo"])
def test_metro_rule_decides_and_adopts_what_the_machine_does(policy, case):
    """Same join-or-stay choice and, past the dwell, the same backups,
    best first: a detached user, one attached to a candidate inside and
    past its dwell, with and without enough improvement to clear
    hysteresis, and one whose node is in no row (it died; no hysteresis
    reads it)."""
    end, backups = metro_round(*case)
    machine_end, machine_backups = machine_round(*case, policy=policy)
    assert end == machine_end
    assert backups is None or backups == machine_backups


def test_the_dwell_ends_at_exactly_min_dwell_ms():
    """At ``now - last_join == min_dwell_ms`` a candidate that clears
    hysteresis is joined; one millisecond earlier the user stays and
    adopts backups — on the machine, and on ``SelectionConfig.settled``
    over arrays, metro's dwell."""
    config = SelectionConfig()
    joined = 1_000.0
    settled_at = joined + config.min_dwell_ms
    row = (config, [0, 1], [100.0, 10.0], 0)
    assert 10.0 < config.switch_threshold(100.0)
    assert machine_round(*row, joined, settled_at) == ("n1", ["n0"])
    assert machine_round(*row, joined, settled_at - 1.0) == ("n0", ["n1"])
    assert reselect_row(config, [0, 1], np.array([100.0, 10.0]), 0) == (1, [0])
    now = np.array([settled_at - 1.0, settled_at, settled_at + 1.0])
    assert config.settled(now, joined).tolist() == [False, True, True]
    joins = np.array([joined, -inf, settled_at])
    assert config.settled(settled_at, joins).tolist() == [True, True, False]


def test_metro_round_scores_a_user_from_exactly_min_dwell_ms():
    """The kernel's due filter: of two users due on the same tick, the
    one that joined exactly ``min_dwell_ms`` ago is re-selected and the
    one that joined a millisecond later is not."""
    config = SystemConfig(seed=5)
    spec = MetroSpec(nodes=40, users=200, region_km=20.0, fps=4.0)
    kernel = MetroKernel(config, spec, build_population(spec, config.seed))
    kernel.step_to(TICK_MS)
    k = 40  # a round at 10 s
    t = k * TICK_MS
    due = np.flatnonzero(kernel.u_slot == k % kernel._period_ticks)
    settled, fresh = due[:2].tolist()
    kernel.u_join_ms[settled] = t - config.min_dwell_ms
    kernel.u_join_ms[fresh] = t - config.min_dwell_ms + 1.0
    scored = []
    kernel._reselect = lambda users, now: scored.extend(users.tolist())
    kernel._selection_round(k, t)
    assert settled in scored and fresh not in scored
