"""Adaptive TopN / T_probing control (§IV-E, realized).

The paper leaves the robustness knobs manual: "Based on the level of
node churn and reliability of volunteer resources, TopN and T_probing
can be modified accordingly." This module closes that loop per client:

- every **failover** (covered or not) is evidence of churn: TopN grows
  by one (more backups) and the probing period shrinks multiplicatively
  (fresher backup lists) — the uncovered case reacts twice as hard;
- a **quiet interval** (no failovers for ``quiet_window_ms``) decays
  both knobs back toward their configured baseline, shedding the extra
  probing/synchronization overhead the paper warns about.

Attach with :meth:`AdaptiveRobustness.attach`; the controller observes
through the client's public counters, so the client needs no knowledge
of the policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.client import EdgeClient


@dataclass
class AdaptiveRobustness:
    """Churn-driven controller for one client's TopN and T_probing.

    Args:
        min_top_n / max_top_n: bounds for the candidate-list size.
        min_period_ms / max_period_ms: bounds for the probing period.
        escalate_factor: multiplicative period shrink per failover.
        decay_factor: multiplicative period growth per quiet window.
        quiet_window_ms: failover-free time that counts as "quiet".
    """

    min_top_n: int = 2
    max_top_n: int = 6
    min_period_ms: float = 500.0
    max_period_ms: float = 8_000.0
    escalate_factor: float = 0.75
    decay_factor: float = 1.25
    quiet_window_ms: float = 30_000.0

    def __post_init__(self) -> None:
        if not 1 <= self.min_top_n <= self.max_top_n:
            raise ValueError("need 1 <= min_top_n <= max_top_n")
        if not 0.0 < self.min_period_ms <= self.max_period_ms:
            raise ValueError("need 0 < min_period_ms <= max_period_ms")
        if not 0.0 < self.escalate_factor < 1.0:
            raise ValueError("escalate_factor must be in (0, 1)")
        if self.decay_factor <= 1.0:
            raise ValueError("decay_factor must be > 1")
        if self.quiet_window_ms <= 0:
            raise ValueError("quiet_window_ms must be positive")

    # ------------------------------------------------------------------
    def attach(self, client: "EdgeClient") -> None:
        """Install this controller on a client (one controller per client).

        Observation is pull-based: a lightweight tick scheduled on the
        client's simulator compares the client's failover counters since
        the last tick.
        """
        client.robustness_controller = self
        state = _ClientState(
            last_events=_failover_count(client),
            last_event_at_ms=client.sim.now,
        )
        client.sim.schedule(
            1_000.0, partial(self._tick, client, state), label=f"{client.user_id}.adapt"
        )

    def _tick(self, client: "EdgeClient", state: "_ClientState") -> None:
        if client._stopped:  # noqa: SLF001 - intentional lifecycle peek
            return
        now = client.sim.now
        events = _failover_count(client)
        uncovered = client.stats.uncovered_failures
        if events > state.last_events:
            hard = uncovered > state.last_uncovered
            self._escalate(client, hard=hard)
            state.last_events = events
            state.last_uncovered = uncovered
            state.last_event_at_ms = now
        elif now - state.last_event_at_ms >= self.quiet_window_ms:
            self._decay(client)
            state.last_event_at_ms = now
        client.sim.schedule(
            1_000.0, partial(self._tick, client, state), label=f"{client.user_id}.adapt"
        )

    # ------------------------------------------------------------------
    def _escalate(self, client: "EdgeClient", *, hard: bool) -> None:
        """React to observed churn; ``hard`` = an uncovered failure."""
        step = 2 if hard else 1
        client.top_n = min(self.max_top_n, client.top_n + step)
        factor = self.escalate_factor ** (2 if hard else 1)
        client.probing_period_ms = max(
            self.min_period_ms, client.probing_period_ms * factor
        )

    def _decay(self, client: "EdgeClient") -> None:
        """Shed overhead after a quiet window."""
        baseline_top_n = max(self.min_top_n, client.config.top_n)
        if client.top_n > baseline_top_n:
            client.top_n -= 1
        baseline_period = min(self.max_period_ms, client.config.probing_period_ms)
        client.probing_period_ms = min(
            baseline_period, client.probing_period_ms * self.decay_factor
        )


@dataclass
class _ClientState:
    last_events: int
    last_event_at_ms: float
    last_uncovered: int = 0


def _failover_count(client: "EdgeClient") -> int:
    return client.stats.covered_failovers + client.stats.uncovered_failures
