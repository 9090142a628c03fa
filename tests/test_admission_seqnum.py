"""Algorithm 1: every state change of an edge node bumps its seqNum.

A ``Join()`` echoes the seqNum its probe read and is accepted only if
the node's state has not changed since. The performance monitor's two
refresh triggers — the idle win-back (no recent traffic, a stale what-if
above ``IDLE_REFRESH_FACTOR`` times the idle floor, nobody attached) and
the drift trigger — change the state the probe read, so a join carrying
the seqNum from before either one must be rejected, and one carrying the
seqNum after it accepted.
"""

import pytest

from repro.protocol.admission import (
    IDLE_REFRESH_FACTOR,
    PERF_MONITOR_THRESHOLD,
    AdmissionConfig,
    AdmissionMachine,
)
from repro.protocol.effects import ReplyJoin, ReplyProbe, ScheduleTestWorkload
from repro.protocol.events import JoinRequested, MonitorSample, ProbeRequested

WHAT_IF_MS = 30.0


def fresh_node():
    """Nobody attached; the cached what-if and the drift baseline both
    read ``WHAT_IF_MS``."""
    return AdmissionMachine(
        "n0", AdmissionConfig(), initial_ms=WHAT_IF_MS, project=lambda fps, slow: 1.0
    )


def probed_seq(node):
    (reply,) = [e for e in node.handle(ProbeRequested(now=0.0)) if isinstance(e, ReplyProbe)]
    return reply.seq_num


def join(node, seq_num):
    effects = node.handle(JoinRequested(now=2.0, user_id="u0", seq_num=seq_num, fps=20.0))
    (reply,) = [e for e in effects if isinstance(e, ReplyJoin)]
    return reply.accepted


IDLE = MonitorSample(now=1.0, measured_ms=None, idle_floor_ms=10.0)
DRIFT = MonitorSample(now=1.0, measured_ms=50.0, idle_floor_ms=10.0)


@pytest.mark.parametrize("sample", [IDLE, DRIFT], ids=["idle", "drift"])
def test_a_refresh_bumps_seq_num_so_a_join_from_before_it_is_rejected(sample):
    assert WHAT_IF_MS > IDLE_REFRESH_FACTOR * IDLE.idle_floor_ms
    assert abs(DRIFT.measured_ms - WHAT_IF_MS) / WHAT_IF_MS > PERF_MONITOR_THRESHOLD
    node = fresh_node()
    before = probed_seq(node)
    effects = node.handle(sample)
    assert any(isinstance(e, ScheduleTestWorkload) for e in effects)
    after = probed_seq(node)
    assert after == node.seq_num == before + 1
    assert not join(node, before)
    assert node.attached == {}
    assert join(node, after)
    assert node.attached == {"u0": 20.0}


@pytest.mark.parametrize(
    "sample",
    [
        # A what-if at exactly the idle refresh bound is not stale.
        MonitorSample(now=1.0, measured_ms=None, idle_floor_ms=WHAT_IF_MS / IDLE_REFRESH_FACTOR),
        # 12 / 30 is the threshold itself: not a drift.
        MonitorSample(now=1.0, measured_ms=WHAT_IF_MS + 12.0, idle_floor_ms=10.0),
    ],
    ids=["idle-at-bound", "drift-at-threshold"],
)
def test_no_refresh_keeps_seq_num_and_the_probed_join(sample):
    node = fresh_node()
    before = probed_seq(node)
    assert node.handle(sample) == []
    assert node.seq_num == before
    assert join(node, before)
