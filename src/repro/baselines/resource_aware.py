"""Resource-aware weighted round robin baseline.

"This is a common edge selection and load balancing policy used in
fine-grained multi-edge environments. ... incoming user requests are
forwarded to the most available edge nodes in a weighted round robin
fashion. The weight applied for each edge node is determined by the
resource availability and utilization" (§V-B).

Users are assigned by the manager's smooth-WRR over availability scores.
The policy balances *compute* contention well, but "cannot identify the
network heterogeneity between users and nodes to tradeoff resource
availability and faster networking channel" — a user may land on an
available but badly-connected node, the gap Figs. 6-7 show.
"""

from __future__ import annotations

from repro.core.client import EdgeClient
from repro.messages import DiscoveryQuery
from repro.obs.events import DiscoveryIssued, UncoveredFailure


class ResourceAwareWRRClient(EdgeClient):
    """Manager-assigned WRR selection; reactive recovery on failure."""

    def __init__(self, *args, **kwargs) -> None:
        kwargs.setdefault("proactive_connections", False)
        super().__init__(*args, **kwargs)

    # ------------------------------------------------------------------
    def _begin_selection_round(self) -> None:
        if self._stopped or self._round_in_progress:
            return
        if self.attached:
            return  # static assignment while the node lives
        self._round_in_progress = True
        rtt = self.system.topology.rtt_ms(self.user_id, self.system.manager_id)
        self.system.sim.schedule(rtt, self._attach_wrr, label=f"{self.user_id}.wrr")

    def _attach_wrr(self, exclude: tuple = ()) -> None:
        if self._stopped:
            return
        self.stats.discovery_queries += 1
        self.system.trace.emit(DiscoveryIssued(self.system.sim.now, self.user_id))
        endpoint = self.system.topology.endpoint(self.user_id)
        query = DiscoveryQuery(
            user_id=self.user_id,
            lat=endpoint.point.lat,
            lon=endpoint.point.lon,
            top_n=1,
            isp=endpoint.isp,
            exclude=exclude,
        )
        target = self.system.manager.wrr_assign(query)
        if target is None:
            self._end_round()
            self.system.sim.schedule(500.0, self._begin_selection_round)
            return
        node = self.system.nodes.get(target)
        rtt = self.system.topology.rtt_ms(self.user_id, target)

        def deliver() -> None:
            if self._stopped:
                return
            if node is not None and node.alive and node.unexpected_join(
                self.user_id, self.controller.fps
            ):
                self.current_edge = target
                self._ensure_link(target, rtt)
                self._end_round()
                self._flush_backlog()
            else:
                # Assignment raced a failure: ask again, excluding it.
                self._attach_wrr(exclude=exclude + (target,))

        self.system.sim.schedule(rtt, deliver, label=f"{self.user_id}.wrrjoin")

    # ------------------------------------------------------------------
    def on_edge_failure(self, node_id: str) -> None:
        if self._stopped:
            return
        self.links.pop(node_id, None)
        if node_id != self.current_edge:
            return
        self.current_edge = None
        self.stats.uncovered_failures += 1
        self.system.trace.emit(UncoveredFailure(self.system.sim.now, self.user_id))
        self._begin_selection_round()
