"""What the reactive baselines share: attach once, recover on failure.

Geo-proximity, random, resource-aware WRR and the static pin differ
only in *which* node they pick. Each then ``Unexpected_join``\\ s it
after one RTT (an attach that cannot be rejected, so no seqNum round),
keeps no backups, and on losing its node counts an uncovered failure
and picks again.
"""

from __future__ import annotations

from typing import Any, Callable, List

from repro.core.client import EdgeClient
from repro.messages import NodeStatus
from repro.obs.events import DiscoveryIssued, UncoveredFailure


class ReactiveClient(EdgeClient):
    """An :class:`EdgeClient` whose selection round is one direct attach.

    Subclasses implement :meth:`_select`, which starts the pick and ends
    in :meth:`_attach` (or :meth:`_retry_round` when there is nothing to
    pick).
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        kwargs.setdefault("proactive_connections", False)
        super().__init__(*args, **kwargs)

    def _begin_selection_round(self) -> None:
        if self._stopped or self._machine.round_in_progress or self.attached:
            return  # a reactive client never re-selects while attached
        self._machine.round_in_progress = True
        self._select()

    def _select(self) -> None:
        raise NotImplementedError

    def _discovery_issued(self) -> None:
        self.stats.discovery_queries += 1
        self.tracer.emit(DiscoveryIssued(self.sim.now, self.user_id))

    def _alive_candidates(self) -> List[NodeStatus]:
        """The manager's alive nodes its node predicate admits."""
        statuses = self.system.manager.alive_statuses()
        predicate = self.system.manager.policy.node_predicate
        if predicate is not None:
            statuses = [s for s in statuses if predicate(s)]
        return statuses

    def _attach(
        self, target: str, label: str, on_refused: Callable[[], None]
    ) -> None:
        """``Unexpected_join`` ``target`` after one RTT; attach, or call
        ``on_refused`` when the node is gone."""
        node = self.nodes.get(target)
        rtt = self.topology.rtt_ms(self.user_id, target)

        def deliver() -> None:
            if self._stopped:
                return
            if node is not None and node.alive and node.unexpected_join(
                self.user_id, self.controller.fps
            ).accepted:
                self.current_edge = target
                self._ensure_link(target, rtt)
                self._machine.round_in_progress = False
                self._flush_backlog()
            else:
                on_refused()

        self.sim.schedule(rtt, deliver, label=label)

    def _retry_round(self, delay_ms: float) -> None:
        """Give up on this round; start another after ``delay_ms``."""
        self._machine.round_in_progress = False
        self.sim.schedule(delay_ms, self._begin_selection_round)

    def on_edge_failure(self, node_id: str) -> None:
        """Reactive: lose the node, count an uncovered failure, pick again."""
        if self._stopped:
            return
        self._drop_link(node_id)
        if node_id != self.current_edge:
            return
        self.current_edge = None
        self.stats.uncovered_failures += 1
        self.tracer.emit(UncoveredFailure(self.sim.now, self.user_id))
        self._begin_selection_round()
