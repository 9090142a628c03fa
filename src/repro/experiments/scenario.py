"""Scenario builders for the paper's two evaluation environments.

**Real world** (§V-C): 15 users + 5 volunteer laptops (Table II V1-V5)
within ~10 miles in the Minneapolis-Saint Paul metro, 4 AWS Local Zone
instances (D6-D9) and one regional cloud instance. Network behaviour
comes from the calibrated :class:`~repro.net.latency.DistanceRttModel`.

**Emulation** (§V-D): 9 EC2 volunteer nodes (4x t2.medium, 4x t2.xlarge,
1x t2.2xlarge) and 15 user devices "within 50 miles", with
distance-correlated pairwise RTTs spanning the paper's 8-55 ms range
(the tc latencies were configured "in the corresponding
geo-distribution"). Dynamically churned nodes get positions — and hence
stable pairwise latencies — the moment they spawn.

Both builders return a :class:`~repro.world.World`, so experiments can
attach clients of any strategy to the same physical world, and any
executor can run it.
"""

from __future__ import annotations

from typing import List

from repro.geo.point import GeoPoint
from repro.geo.region import MSP_CENTER, MetroArea, PlacementStyle
from repro.net.latency import DistanceRttModel, JitterModel, NetworkTier
from repro.net.topology import EndpointSpec, NetworkTopology
from repro.nodes.hardware import (
    CLOUD_NODE,
    DEDICATED_PROFILES,
    EMULATION_PROFILES,
    HardwareProfile,
    VOLUNTEER_PROFILES,
)
from repro.sim.random import RandomStreams
from repro.world import World, WorldNode, WorldUser

#: Where the Local Zone instances sit (a downtown data-center location).
LOCAL_ZONE_POINT = GeoPoint(44.9730, -93.2570)
#: The regional cloud (us-east-2-ish: ~1000 km away).
CLOUD_POINT = GeoPoint(40.0, -83.0)

#: Residential ISPs volunteers/users are spread across (affects the
#: same-ISP discount of the distance RTT model).
METRO_ISPS = ("isp-comcast", "isp-centurylink", "isp-usi")


def real_world(
    seed: int,
    *,
    n_users: int = 15,
    include_volunteers: bool = True,
    include_dedicated: bool = True,
    include_cloud: bool = True,
) -> World:
    """The Table II deployment (no clients — experiments attach their own).

    Volunteers (``V1``..) sit on :data:`~repro.net.latency.NetworkTier`
    ``HOME_WIFI``, the Local Zone instances (``D6``..) on
    ``LOCAL_ZONE`` and the regional cloud on ``CLOUD``, so
    :meth:`~repro.world.World.node_ids_on` reads each class back. Users
    are ``u01``..; every position and last-mile draw comes from
    ``RandomStreams(seed).get("placement")``.
    """
    placement_rng = RandomStreams(seed).get("placement")
    metro = MetroArea(center=MSP_CENTER, radius_km=16.0, rng=placement_rng)
    nodes: List[WorldNode] = []
    if include_volunteers:
        for index, profile in enumerate(VOLUNTEER_PROFILES):
            point = metro.sample(PlacementStyle.GAUSSIAN)
            spec = EndpointSpec(
                point,
                tier=NetworkTier.HOME_WIFI,
                isp=METRO_ISPS[index % len(METRO_ISPS)],
                uplink_mbps=40.0,
                downlink_mbps=300.0,
                # "volunteer-based edge nodes ... with heterogeneous
                # network access" (Fig. 1): last-mile quality varies a
                # lot more than metro distance does. The spread keeps
                # the class mean below the Local Zone's (Fig. 1's
                # headline) while individual volunteers can land above
                # it (Fig. 1's spread).
                access_extra_ms=placement_rng.uniform(0.0, 12.0),
            )
            nodes.append(WorldNode(profile.name, profile, spec))

    if include_dedicated:
        for profile in DEDICATED_PROFILES:
            spec = EndpointSpec(
                LOCAL_ZONE_POINT,
                tier=NetworkTier.LOCAL_ZONE,
                uplink_mbps=1000.0,
                downlink_mbps=1000.0,
            )
            nodes.append(WorldNode(profile.name, profile, spec, dedicated=True))

    if include_cloud:
        # The cloud is modelled as elastic (it can always add instances),
        # so its node carries high parallelism: offloading there costs
        # WAN latency, not contention. Documented in EXPERIMENTS.md.
        elastic_cloud = HardwareProfile(
            name=CLOUD_NODE.name,
            processor=CLOUD_NODE.processor,
            cores=CLOUD_NODE.cores,
            base_frame_ms=CLOUD_NODE.base_frame_ms,
            parallelism=32,
        )
        spec = EndpointSpec(
            CLOUD_POINT,
            tier=NetworkTier.CLOUD,
            uplink_mbps=10_000.0,
            downlink_mbps=10_000.0,
        )
        nodes.append(
            WorldNode(elastic_cloud.name, elastic_cloud, spec, dedicated=True)
        )

    users: List[WorldUser] = []
    for i in range(n_users):
        point = metro.sample(PlacementStyle.UNIFORM_DISC)
        spec = EndpointSpec(
            point,
            tier=NetworkTier.HOME_WIFI,
            isp=METRO_ISPS[i % len(METRO_ISPS)],
            uplink_mbps=20.0,
            downlink_mbps=200.0,
            access_extra_ms=placement_rng.uniform(0.0, 4.0),
        )
        users.append(WorldUser(f"u{i + 1:02d}", spec))

    return World(tuple(nodes), tuple(users), manager_point=CLOUD_POINT)


# ----------------------------------------------------------------------
# Emulation environment (§V-D)
# ----------------------------------------------------------------------
#: §V-D1 node fleet: 4x t2.medium, 4x t2.xlarge, 1x t2.2xlarge.
EMULATION_NODE_MIX = (
    ("t2.medium", 4),
    ("t2.xlarge", 4),
    ("t2.2xlarge", 1),
)
#: §V-D2 churn pool: 8x t2.medium, 8x t2.xlarge, 2x t2.2xlarge.
CHURN_NODE_MIX = (
    ("t2.medium", 8),
    ("t2.xlarge", 8),
    ("t2.2xlarge", 2),
)


def emulation_node_profiles(
    mix: tuple = EMULATION_NODE_MIX,
) -> List[HardwareProfile]:
    """Expand a (profile name, count) mix into a profile list."""
    profiles: List[HardwareProfile] = []
    for name, count in mix:
        profiles.extend([EMULATION_PROFILES[name]] * count)
    return profiles


def emulation_topology() -> NetworkTopology:
    """The §V-D1 network model: distance-correlated RTTs with tc-like
    jitter. A fresh topology per system (it registers the endpoints)."""
    rtt_model = DistanceRttModel(
        jitter=JitterModel(sigma=0.06, spike_probability=0.005),
    )
    return NetworkTopology(rtt_model=rtt_model)


def emulation_world(
    seed: int, *, n_users: int = 15, spawn_nodes: bool = True
) -> World:
    """The §V-D1 emulation world; run it over :func:`emulation_topology`.

    The paper configures pairwise latency "using tc with real-world
    measurement data", with RTTs of 8-55 ms "in the corresponding
    geo-distribution" of entities "within 50 miles" — i.e. the emulated
    latencies are distance-correlated. We reproduce that with the
    distance RTT model over an 80 km (~50 mi) region plus heterogeneous
    per-endpoint access overheads, which spans the same 8-55 ms range.
    Set ``spawn_nodes=False`` for churn experiments that create nodes
    from a trace instead. Every position and access draw comes from
    ``RandomStreams(seed).get("placement")``.
    """
    placement_rng = RandomStreams(seed).get("placement")
    metro = MetroArea(center=MSP_CENTER, radius_km=80.0, rng=placement_rng)

    nodes: List[WorldNode] = []
    if spawn_nodes:
        for name, count in EMULATION_NODE_MIX:
            profile = EMULATION_PROFILES[name]
            for _ in range(count):
                spec = EndpointSpec(
                    metro.sample(PlacementStyle.UNIFORM_DISC),
                    tier=NetworkTier.HOME_WIFI,
                    access_extra_ms=placement_rng.uniform(0.0, 12.0),
                )
                node_id = f"e{len(nodes) + 1:02d}-{name}"
                nodes.append(WorldNode(node_id, profile, spec))

    users: List[WorldUser] = []
    for i in range(n_users):
        spec = EndpointSpec(
            metro.sample(PlacementStyle.UNIFORM_DISC),
            tier=NetworkTier.HOME_WIFI,
            uplink_mbps=50.0,
            access_extra_ms=placement_rng.uniform(0.0, 12.0),
        )
        users.append(WorldUser(f"u{i + 1:02d}", spec))
    return World(tuple(nodes), tuple(users))
