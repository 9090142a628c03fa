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

from functools import partial
from typing import Tuple

from repro.baselines.reactive import ReactiveClient
from repro.messages import DiscoveryQuery


class ResourceAwareWRRClient(ReactiveClient):
    """Manager-assigned WRR selection; reactive recovery on failure."""

    def _select(self) -> None:
        rtt = self.system.topology.rtt_ms(self.user_id, self.system.manager_id)
        self.system.sim.schedule(rtt, self._attach_wrr, label=f"{self.user_id}.wrr")

    def _attach_wrr(self, exclude: Tuple[str, ...] = ()) -> None:
        if self._stopped:
            return
        self._discovery_issued()
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
            self._retry_round(500.0)
            return
        # An assignment that raced a failure: ask again, excluding it.
        self._attach(
            target,
            f"{self.user_id}.wrrjoin",
            partial(self._attach_wrr, exclude + (target,)),
        )
