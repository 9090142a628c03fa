"""Churn traces: the full join/leave schedule of a dynamic experiment."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from repro.churn.models import PoissonArrivalModel, WeibullLifetimeModel


@dataclass(frozen=True)
class NodeEpisode:
    """One volunteer node's presence interval.

    ``restart_ms`` (optional) turns the episode into a crash-and-return:
    the node fails at ``fail_ms`` and comes back *under the same id* at
    ``restart_ms`` — a rebooted volunteer rather than a permanent
    departure. The restarted node is a fresh process (seqNum 0,
    re-primed what-if cache); it stays up until the horizon.
    """

    node_id: str
    join_ms: float
    fail_ms: float
    restart_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.fail_ms <= self.join_ms:
            raise ValueError(
                f"episode must have positive lifetime: {self.join_ms}..{self.fail_ms}"
            )
        if self.restart_ms is not None and self.restart_ms <= self.fail_ms:
            raise ValueError(
                f"restart {self.restart_ms} must come after failure {self.fail_ms}"
            )

    @property
    def lifetime_ms(self) -> float:
        return self.fail_ms - self.join_ms

    def alive_at(self, now_ms: float) -> bool:
        if self.join_ms <= now_ms < self.fail_ms:
            return True
        return self.restart_ms is not None and now_ms >= self.restart_ms


@dataclass(frozen=True)
class ChurnTrace:
    """An ordered collection of node episodes over a horizon."""

    episodes: List[NodeEpisode]
    horizon_ms: float

    def __len__(self) -> int:
        return len(self.episodes)

    def alive_count_at(self, now_ms: float) -> int:
        return sum(1 for e in self.episodes if e.alive_at(now_ms))


def generate_trace(
    rng: random.Random,
    horizon_ms: float = 180_000.0,
    arrivals: Optional[PoissonArrivalModel] = None,
    lifetimes: Optional[WeibullLifetimeModel] = None,
    node_prefix: str = "vol",
    target_total_nodes: Optional[int] = None,
    max_attempts: int = 1_000,
) -> ChurnTrace:
    """Generate one churn trace.

    When ``target_total_nodes`` is given, configurations are regenerated
    until one with exactly that many nodes appears — the paper "randomly
    select[s] a configuration from multiple runs of this process, which
    results in a total of 18 edge nodes over a 3-minute timeline".

    Failure times are clipped to the horizon (a node outliving the run
    simply never fails). Every trace carries at least one node: an empty
    draw is rejected, since an experiment with zero edge nodes measures
    nothing.

    Raises:
        ValueError: if no acceptable configuration is found within
            ``max_attempts``.
    """
    if horizon_ms <= 0:
        raise ValueError(f"horizon must be positive: {horizon_ms}")
    arrivals = arrivals or PoissonArrivalModel()
    lifetimes = lifetimes or WeibullLifetimeModel()

    for _ in range(max_attempts):
        episodes: List[NodeEpisode] = []
        index = 1
        epoch_start = 0.0
        while epoch_start < horizon_ms:
            for join_ms in arrivals.sample_epoch_arrivals(rng, epoch_start):
                if join_ms >= horizon_ms:
                    continue
                lifetime = lifetimes.sample_lifetime_ms(rng)
                fail_ms = join_ms + lifetime
                episodes.append(
                    NodeEpisode(f"{node_prefix}-{index:03d}", join_ms, fail_ms)
                )
                index += 1
            epoch_start += arrivals.epoch_ms
        if not episodes:
            continue
        if target_total_nodes is not None and len(episodes) != target_total_nodes:
            continue
        episodes.sort(key=lambda e: e.join_ms)
        return ChurnTrace(episodes=episodes, horizon_ms=horizon_ms)

    raise ValueError(
        f"no churn configuration with {target_total_nodes} nodes found in "
        f"{max_attempts} attempts"
    )
