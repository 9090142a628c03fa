"""One deployment value for every executor.

A :class:`World` says *who* is deployed and *where*: edge nodes (id,
hardware profile, network endpoint, dedicated flag), user endpoints (id,
network endpoint) and the Central Manager's position. It says nothing
about how a run behaves — tunables stay in
:class:`~repro.core.config.SystemConfig`, and a network model (such as
the emulation's jittered topology) stays an executor argument.

Both executors run the same value:

- ``EdgeSystem(config, world=world)`` registers the nodes, then the user
  endpoints, in tuple order;
- ``LocalCluster(world)`` boots exactly those ids at those points on
  loopback, and refuses an endpoint it cannot honour (loopback has no
  tier, ISP or bandwidth model).

Every builder is a function that returns one:
:class:`~repro.api.ScenarioBuilder` (by hand),
:func:`~repro.experiments.scenario.real_world` and
:func:`~repro.experiments.scenario.emulation_world` (the paper's two
environments), :meth:`~repro.faults.scenarios.ChaosScenario.world` and
:func:`sampled_world` (a seeded metro disc).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Tuple

from repro.geo.point import GeoPoint
from repro.geo.region import MSP_CENTER, MetroArea
from repro.net.latency import NetworkTier
from repro.net.topology import EndpointSpec
from repro.nodes.hardware import HardwareProfile

__all__ = [
    "DEFAULT_MANAGER_POINT",
    "MANAGER_ID",
    "World",
    "WorldNode",
    "WorldUser",
    "sampled_world",
]

#: Reserved endpoint id of the Central Manager.
MANAGER_ID = "central-manager"
#: Where the Central Manager sits unless a world says otherwise: a
#: regional cloud, so discovery costs a realistic RTT.
DEFAULT_MANAGER_POINT = GeoPoint(41.0, -87.0)


class WorldNode(NamedTuple):
    """One edge node of a world."""

    node_id: str
    profile: HardwareProfile
    spec: EndpointSpec
    dedicated: bool = False


class WorldUser(NamedTuple):
    """One user endpoint of a world."""

    user_id: str
    spec: EndpointSpec


@dataclass(frozen=True)
class World:
    """A frozen deployment: nodes, users and the manager's position.

    Raises:
        ValueError: at construction, for an id used twice (across nodes
            and users) or an id equal to :data:`MANAGER_ID`.
    """

    nodes: Tuple[WorldNode, ...] = ()
    users: Tuple[WorldUser, ...] = ()
    manager_point: GeoPoint = DEFAULT_MANAGER_POINT

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "users", tuple(self.users))
        seen = {MANAGER_ID}
        for entity_id in (*self.node_ids, *self.user_ids):
            if entity_id == MANAGER_ID:
                raise ValueError(
                    f"id {entity_id!r} is reserved for the Central Manager"
                )
            if entity_id in seen:
                raise ValueError(f"duplicate id in world: {entity_id!r}")
            seen.add(entity_id)

    @property
    def node_ids(self) -> Tuple[str, ...]:
        return tuple(node.node_id for node in self.nodes)

    @property
    def user_ids(self) -> Tuple[str, ...]:
        return tuple(user.user_id for user in self.users)

    def node_ids_on(self, tier: NetworkTier) -> Tuple[str, ...]:
        """Ids of the nodes whose endpoint sits on ``tier``."""
        return tuple(node.node_id for node in self.nodes if node.spec.tier is tier)


def sampled_world(
    profiles: Sequence[HardwareProfile], n_clients: int = 1, seed: int = 0
) -> World:
    """One node per profile and ``n_clients`` users, uniform over a
    16 km disc around the MSP metro center.

    Nodes are ``edge-NN-<profile>`` and users ``user-NN``; every
    position comes from one ``random.Random(seed)``, nodes first.
    """
    area = MetroArea(center=MSP_CENTER, radius_km=16.0, rng=random.Random(seed))
    nodes = [
        WorldNode(
            f"edge-{index + 1:02d}-{profile.name}", profile, EndpointSpec(area.sample())
        )
        for index, profile in enumerate(profiles)
    ]
    users = [
        WorldUser(f"user-{index + 1:02d}", EndpointSpec(area.sample()))
        for index in range(n_clients)
    ]
    return World(tuple(nodes), tuple(users))
