"""One World value, run by both executors.

A builder-made world must land identically in the simulator's topology
and in a live loopback cluster's registry; a world refuses ambiguous ids
when it is made; the loopback cluster refuses what it cannot model
before it opens a socket; and :func:`sampled_world` keeps the seeded
placement the live cluster has always used.
"""

from __future__ import annotations

import asyncio
import dataclasses
import socket

import pytest

from repro.api import ScenarioBuilder
from repro.core.config import SystemConfig
from repro.core.system import EdgeSystem
from repro.geo.point import GeoPoint
from repro.net.latency import NetworkTier
from repro.net.topology import EndpointSpec
from repro.nodes.hardware import VOLUNTEER_PROFILES, profile_by_name
from repro.runtime import LocalCluster
from repro.world import MANAGER_ID, World, WorldNode, WorldUser, sampled_world

V1 = profile_by_name("V1")
HERE = EndpointSpec(GeoPoint(44.97, -93.25))


def builder_world() -> World:
    return (
        ScenarioBuilder(SystemConfig(seed=3))
        .node("V1", V1, point=GeoPoint(44.980, -93.260))
        .node("V2", profile_by_name("V2"), point=GeoPoint(44.950, -93.200))
        .node("D6", profile_by_name("D6"), point=GeoPoint(44.97, -93.26),
              dedicated=True)
        .client("alice", point=GeoPoint(44.970, -93.250))
        .client_endpoint("bob", point=GeoPoint(44.930, -93.180))
        .world()
    )


def test_both_executors_register_the_same_ids_at_the_same_points():
    world = builder_world()
    system = EdgeSystem(SystemConfig(seed=3), world=world)
    topology = system.topology
    sim_nodes = {
        n: (topology.endpoint(n).point, node.dedicated)
        for n, node in system.nodes.items()
    }
    sim_users = {u: topology.endpoint(u).point for u in world.user_ids}

    async def live():
        cluster = LocalCluster(world, time_scale=0.01, heartbeat_period_s=3600.0)
        await cluster.start()
        try:
            registry = cluster.manager._registry
            nodes = {
                n: (GeoPoint(s.lat, s.lon), s.dedicated) for n, s in registry.items()
            }
            return nodes, {c.user_id: c.point for c in cluster.clients}
        finally:
            await cluster.stop()

    live_nodes, live_users = asyncio.run(live())
    assert list(sim_nodes) == list(world.node_ids) == ["V1", "V2", "D6"]
    assert live_nodes == sim_nodes
    assert live_users == sim_users
    assert sim_nodes["D6"][1] and not sim_nodes["V1"][1]


def test_world_is_frozen_and_holds_tuples():
    world = World([WorldNode("V1", V1, HERE)], [WorldUser("u1", HERE)])
    assert isinstance(world.nodes, tuple) and isinstance(world.users, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        world.nodes = ()  # type: ignore[misc]


@pytest.mark.parametrize(
    "nodes, users",
    [
        ([WorldNode("a", V1, HERE), WorldNode("a", V1, HERE)], []),
        ([WorldNode("a", V1, HERE)], [WorldUser("a", HERE)]),
        ([], [WorldUser("u", HERE), WorldUser("u", HERE)]),
    ],
    ids=["node-node", "node-user", "user-user"],
)
def test_duplicate_ids_are_refused_at_construction(nodes, users):
    with pytest.raises(ValueError, match="duplicate"):
        World(nodes, users)


@pytest.mark.parametrize("kind", ["node", "user"])
def test_the_manager_id_is_reserved(kind):
    nodes = [WorldNode(MANAGER_ID, V1, HERE)] if kind == "node" else []
    users = [WorldUser(MANAGER_ID, HERE)] if kind == "user" else []
    with pytest.raises(ValueError, match="reserved"):
        World(nodes, users)
    with pytest.raises(ValueError, match="reserved"):
        builder = ScenarioBuilder()
        if kind == "node":
            builder.node(MANAGER_ID, V1, HERE)
        else:
            builder.client_endpoint(MANAGER_ID, HERE)
        builder.build()


def test_the_empty_world_is_a_system_nodes_can_join():
    system = EdgeSystem(SystemConfig(seed=1), world=World())
    assert system.alive_node_count() == 0
    system.add_node("late", V1, HERE)
    assert system.alive_node_count() == 1


@pytest.mark.parametrize(
    "extra",
    [
        {"tier": NetworkTier.LOCAL_ZONE},
        {"isp": "isp-x"},
        {"uplink_mbps": 40.0},
        {"downlink_mbps": 300.0},
        {"access_extra_ms": 2.0},
    ],
    ids=lambda extra: next(iter(extra)),
)
@pytest.mark.parametrize("kind", ["node", "user"])
def test_loopback_refuses_a_network_model_before_any_socket_opens(
    monkeypatch, kind, extra
):
    def no_socket(*args, **kwargs):
        raise AssertionError("a socket was opened")

    monkeypatch.setattr(socket, "socket", no_socket)
    modelled = dataclasses.replace(HERE, **extra)
    world = World(
        [WorldNode("V1", V1, modelled if kind == "node" else HERE)],
        [WorldUser("u1", modelled if kind == "user" else HERE)],
    )
    with pytest.raises(ValueError, match="positions only"):
        LocalCluster(world)


def test_loopback_refuses_a_world_without_nodes():
    with pytest.raises(ValueError, match="at least one edge"):
        LocalCluster(World(users=[WorldUser("u1", HERE)]))


#: ``LocalCluster(VOLUNTEER_PROFILES[:4], n_clients=2, seed=s)`` placed
#: its edges and users here before placement moved into ``sampled_world``.
PINNED = {
    0: (
        [
            (44.984398316643784, -93.45147931648015),
            (44.97258053491291, -93.13343766188244),
            (44.89282335661975, -93.18328800503078),
            (44.93596812380546, -93.0951128606899),
        ],
        [
            (44.89188355733155, -93.33517288481869),
            (44.84089214536539, -93.27070114626738),
        ],
    ),
    1: (
        [
            (45.008076318467815, -93.32595302156385),
            (44.97379999684546, -93.08751736212832),
            (44.88168463948882, -93.22037066902212),
            (45.00575081118635, -93.42418357875596),
        ],
        [
            (45.02113717330453, -93.25397119468424),
            (44.85795282523148, -93.18884419099912),
        ],
    ),
    2: (
        [
            (45.11085119171971, -93.32896548934657),
            (45.00723389472176, -93.24043724458025),
            (44.96623368621263, -93.45000219178814),
            (44.935783116046906, -93.10968937774508),
        ],
        [
            (44.890177238758056, -93.36334888125567),
            (45.03745016270341, -93.13506174383951),
        ],
    ),
    3: (
        [
            (44.910376297964646, -93.29219158487878),
            (44.90836098346591, -93.3400821652436),
            (45.08199242478117, -93.20067856833691),
            (44.986414973611346, -93.28488249217901),
        ],
        [
            (44.98499471662871, -93.16202497366345),
            (44.83687953624778, -93.22733953729107),
        ],
    ),
    4: (
        [
            (45.033466672350855, -93.20539822001932),
            (45.028655552144095, -93.15925265038132),
            (44.94759451472061, -93.23462380052693),
            (45.020726012437684, -93.44997268455181),
        ],
        [
            (44.999860735949106, -93.09002352789445),
            (44.96022979457369, -93.1182361563476),
        ],
    ),
}


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_sampled_world_keeps_the_live_clusters_placement(seed):
    world = sampled_world(VOLUNTEER_PROFILES[:4], 2, seed)
    nodes, users = PINNED[seed]
    assert world.node_ids == tuple(f"edge-0{i}-V{i}" for i in range(1, 5))
    assert world.user_ids == ("user-01", "user-02")
    assert [n.profile for n in world.nodes] == list(VOLUNTEER_PROFILES[:4])
    assert [(n.spec.point.lat, n.spec.point.lon) for n in world.nodes] == nodes
    assert [(u.spec.point.lat, u.spec.point.lon) for u in world.users] == users
    assert all(n.spec == EndpointSpec(n.spec.point) for n in world.nodes)
