"""Uniform-random selection — a sanity-floor baseline for tests.

Not in the paper; included because every comparison suite needs a
know-nothing floor: any selection policy worth implementing must beat
attaching to a uniformly random alive node.
"""

from __future__ import annotations

from functools import partial
from typing import Any

from repro.baselines.reactive import ReactiveClient


class RandomSelectClient(ReactiveClient):
    """Attach to a uniformly random alive node; reactive recovery."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._choice_rng = self.system.streams.get(f"random-select.{self.user_id}")

    def _select(self) -> None:
        rtt = self.system.topology.rtt_ms(self.user_id, self.system.manager_id)
        self.system.sim.schedule(rtt, self._attach_random, label=f"{self.user_id}.rnd")

    def _attach_random(self) -> None:
        if self._stopped:
            return
        self._discovery_issued()
        statuses = self._alive_candidates()
        if not statuses:
            self._retry_round(500.0)
            return
        target = self._choice_rng.choice(sorted(s.node_id for s in statuses))
        self._attach(
            target, f"{self.user_id}.rndjoin", partial(self._retry_round, 200.0)
        )
