"""Geo-proximity (locality-based) baseline.

"Users are assigned to their closest edge nodes geographically to offload
the computation. The latency between users and edge nodes is assumed to
be proportional to the distance, and resource capacity is not considered
to be the bottleneck" (§V-B).

The client asks the manager for the node nearest to it (great-circle
distance over heartbeat-reported coordinates) and attaches. It never
probes and never reconsiders unless its node fails — the two blind spots
Figs. 5-7 expose: actual network latency is *not* proportional to
distance in heterogeneous ISP environments, and ignoring capacity piles
users onto the closest node until it overloads.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from repro.baselines.reactive import ReactiveClient


class GeoProximityClient(ReactiveClient):
    """Locality-based selection; reactive recovery on failure."""

    def _select(self) -> None:
        rtt = self.system.topology.rtt_ms(self.user_id, self.system.manager_id)
        self.system.sim.schedule(
            rtt, self._attach_closest, label=f"{self.user_id}.geo"
        )

    def _attach_closest(self) -> None:
        if self._stopped:
            return
        target = self._closest_node_id()
        if target is None:
            self._retry_round(500.0)
            return
        self._attach(
            target, f"{self.user_id}.geojoin", partial(self._retry_round, 500.0)
        )

    def _closest_node_id(self) -> Optional[str]:
        self._discovery_issued()
        statuses = self._alive_candidates()
        if not statuses:
            return None
        user_point = self.system.topology.endpoint(self.user_id).point
        closest = min(
            statuses,
            key=lambda s: (user_point.distance_km(s.point), s.node_id),
        )
        return closest.node_id
