"""A noise-free budget on the per-event frame path.

Wall-clock per frame wobbles with the box; two *counts* do not. On a
seeded scenario, after warm-up, this file measures

- Python-level calls per resolved frame (``sys.setprofile`` "call"
  events — every function entered while the simulator runs), and
- gen-0 cycle collections per 1 000 resolved frames (``gc.callbacks``):
  how much GC-tracked garbage the frames in flight hold, read off the
  collector it wakes up. The young-generation threshold is scaled with
  the population (CPython's default 700 at the ledger's 60 users), so a
  small scenario fills the same share of it as the ledger's does — at
  the default, 12 users' in-flight frames never come near it and the
  count cannot tell a closure pair from a slotted record.

Both repeat exactly for a given seed and size, so each budget sits
midway between the figures before and after the last change that moved
it: the gen-0 budget fails if the closure pair or the frozen records come
back, and the calls budget if the kernel's plumbing does (a clock object,
a queue object, a separate dispatch call, an event plus a heap tuple per
scheduled callback). ``python
tests/test_frame_path_budget.py --nodes 300 --users 60`` prints the same
counts at the perf ledger's ``sim_frames`` size.
"""

from __future__ import annotations

import gc
import random
import sys
from typing import Dict

import pytest

from repro.api import EndpointSpec, ScenarioBuilder
from repro.core.client import _InFlightFrame
from repro.core.config import SystemConfig
from repro.geo.region import MSP_CENTER, MetroArea
from repro.metrics.collector import FrameRecord
from repro.nodes.hardware import VOLUNTEER_PROFILES
from repro.nodes.processing import CompletedFrame
from repro.workload.frames import Frame

WARMUP_MS = 2_000.0

#: Young-generation allocations per collection, per simulated user.
GEN0_THRESHOLD_PER_USER = 700 / 60

#: Measured at 60 nodes / 12 users, seed 42, 4 + 4 sim-s after warm-up;
#: each budget is the midpoint of its before -> after.
#:
#: - Calls per frame, kernel as one loop over one heap whose entries are
#:   the events (was: a clock object, a queue object and a dispatch
#:   method, an event plus a tuple per entry): 82.9 -> 48.9 here, 84.1 -> 50.0 at the ledger's
#:   300 / 60. Earlier, the slotted in-flight record: 105.2 -> 83.1.
#: - Gen-0 collections per 1 000 frames, the slotted in-flight record:
#:   87.4 -> 16.6 here. They read 17.7 here and 3.8 at 300 / 60 both
#:   before and after the kernel change.
CALLS_PER_FRAME_BUDGET = 66.0  # 82.9 -> 48.9
GEN0_PER_1000_FRAMES_BUDGET = 52.0  # 87.4 -> 16.6


def build(nodes: int, users: int, seed: int = 42):
    """The perf ledger's ``sim_frames`` scenario at a chosen size."""
    rng = random.Random(seed)
    area = MetroArea(MSP_CENTER, 40.0, rng)
    builder = ScenarioBuilder(
        SystemConfig(seed=seed, probing_period_ms=5_000.0)
    ).default_node_spec(
        EndpointSpec(MSP_CENTER, uplink_mbps=40.0, downlink_mbps=300.0)
    )
    for i in range(nodes):
        builder.node(
            f"n{i:05d}",
            VOLUNTEER_PROFILES[i % len(VOLUNTEER_PROFILES)],
            point=area.sample(),
        )
    for i in range(users):
        builder.client(f"u{i:04d}", point=area.sample())
    return builder.build()


def measure(nodes: int, users: int, sim_ms: float, seed: int = 42) -> Dict[str, float]:
    """Counts over ``sim_ms`` of steady state; two runs of one world so
    the profile hook's own allocations never reach the GC count."""
    system = build(nodes, users, seed)
    system.run_for(WARMUP_MS)
    frames = system.metrics.frames

    gen0 = 0

    def on_gc(phase: str, info: Dict[str, int]) -> None:
        nonlocal gen0
        if phase == "start" and info["generation"] == 0:
            gen0 += 1

    before = len(frames)
    thresholds = gc.get_threshold()
    gc.collect()
    gc.set_threshold(round(GEN0_THRESHOLD_PER_USER * users), *thresholds[1:])
    gc.callbacks.append(on_gc)
    try:
        system.run_for(sim_ms)
    finally:
        gc.callbacks.remove(on_gc)
        gc.set_threshold(*thresholds)
    gc_frames = len(frames) - before

    calls = 0

    def on_call(frame, event, arg) -> None:
        nonlocal calls
        if event == "call":
            calls += 1

    before = len(frames)
    sys.setprofile(on_call)
    try:
        system.run_for(sim_ms)
    finally:
        sys.setprofile(None)
    call_frames = len(frames) - before
    return {
        "frames": float(gc_frames + call_frames),
        "calls_per_frame": calls / call_frames,
        "gen0_per_1000_frames": gen0 * 1000.0 / gc_frames,
    }


@pytest.fixture(scope="module")
def counts() -> Dict[str, float]:
    got = measure(nodes=60, users=12, sim_ms=4_000.0)
    assert got["frames"] > 1_500  # 12 users at 20 FPS over 8 s
    return got


def test_python_calls_per_frame_stay_inside_budget(counts):
    assert counts["calls_per_frame"] < CALLS_PER_FRAME_BUDGET, counts


def test_gen0_collections_per_1000_frames_stay_inside_budget(counts):
    assert counts["gen0_per_1000_frames"] < GEN0_PER_1000_FRAMES_BUDGET, counts


def test_per_frame_records_are_slotted():
    samples = [
        Frame(1, "u", 0.0, 1.0),
        CompletedFrame(0.0, 0.0, 1.0, 1.0),
        FrameRecord("u", "n", 0.0, 1.0),
        _InFlightFrame(None, None, "n", None, 0.0, 0.0),
    ]
    for record in samples:
        assert not hasattr(record, "__dict__"), type(record).__name__


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=300)
    parser.add_argument("--users", type=int, default=60)
    parser.add_argument("--sim-ms", type=float, default=5_000.0)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()
    print(measure(args.nodes, args.users, args.sim_ms, args.seed))
