"""Host workload interference on volunteer nodes.

Volunteer machines "can run unexpected higher priority host workloads
competing with existing edge services that are out of our control"
(§III-A, §IV-C2 trigger 3). We model interference as a time-varying
*slowdown factor* applied to the node's per-frame service time: a host
job consuming fraction ``f`` of the machine leaves ``1-f`` for the edge
service, inflating frame times by ``1/(1-f)``.

:class:`HostWorkloadSchedule` holds a node's on/off interference
episodes; the simulated edge server samples the factor and lets its
performance monitor notice the drift (which re-triggers the test
workload and bumps ``seqNum``, exactly trigger type 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class HostWorkload:
    """One interference episode on a volunteer machine.

    Attributes:
        start_ms / end_ms: episode interval in simulation time.
        cpu_fraction: fraction of the machine the host job consumes,
            in [0, 0.95].
    """

    start_ms: float
    end_ms: float
    cpu_fraction: float

    def __post_init__(self) -> None:
        if self.end_ms <= self.start_ms:
            raise ValueError(
                f"episode must have positive duration: [{self.start_ms}, {self.end_ms}]"
            )
        if not 0.0 <= self.cpu_fraction <= 0.95:
            raise ValueError(f"cpu_fraction must be in [0, 0.95]: {self.cpu_fraction}")

    @property
    def slowdown_factor(self) -> float:
        """Service-time inflation while the episode is active."""
        return 1.0 / (1.0 - self.cpu_fraction)

    def active_at(self, now_ms: float) -> bool:
        return self.start_ms <= now_ms < self.end_ms


class HostWorkloadSchedule:
    """A node's full interference timeline.

    Episodes may not overlap (a machine runs one disruptive host job at
    a time).
    """

    def __init__(self, episodes: List[HostWorkload]) -> None:
        self.episodes = sorted(episodes, key=lambda e: e.start_ms)
        for earlier, later in zip(self.episodes, self.episodes[1:]):
            if later.start_ms < earlier.end_ms:
                raise ValueError("host workload episodes must not overlap")

    @classmethod
    def none(cls) -> "HostWorkloadSchedule":
        """An empty schedule (dedicated nodes)."""
        return cls([])

    def slowdown_at(self, now_ms: float) -> float:
        """Slowdown factor in effect at ``now_ms`` (1.0 when idle)."""
        for episode in self.episodes:
            if episode.active_at(now_ms):
                return episode.slowdown_factor
            if episode.start_ms > now_ms:
                break
        return 1.0

    def change_points(self) -> List[float]:
        """All times at which the slowdown factor changes."""
        points: List[float] = []
        for episode in self.episodes:
            points.append(episode.start_ms)
            points.append(episode.end_ms)
        return points

    def __len__(self) -> int:
        return len(self.episodes)
