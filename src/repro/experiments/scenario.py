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

Builders return a scenario record naming every entity, so experiments
can attach clients of any strategy to the same physical world.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.core.config import SystemConfig
from repro.core.system import EdgeSystem
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
from repro.policy.global_policy import GlobalSelectionPolicy

#: Where the Local Zone instances sit (a downtown data-center location).
LOCAL_ZONE_POINT = GeoPoint(44.9730, -93.2570)
#: The regional cloud (us-east-2-ish: ~1000 km away).
CLOUD_POINT = GeoPoint(40.0, -83.0)

#: Residential ISPs volunteers/users are spread across (affects the
#: same-ISP discount of the distance RTT model).
METRO_ISPS = ("isp-comcast", "isp-centurylink", "isp-usi")


@dataclass
class RealWorldScenario:
    """Handles to everything the real-world builders created."""

    system: EdgeSystem
    volunteer_ids: List[str]
    dedicated_ids: List[str]
    cloud_id: Optional[str]
    user_ids: List[str]

    @property
    def all_node_ids(self) -> List[str]:
        ids = list(self.volunteer_ids) + list(self.dedicated_ids)
        if self.cloud_id is not None:
            ids.append(self.cloud_id)
        return ids


def build_real_world_system(
    config: Optional[SystemConfig] = None,
    *,
    n_users: int = 15,
    include_volunteers: bool = True,
    include_dedicated: bool = True,
    include_cloud: bool = True,
    global_policy: Optional[GlobalSelectionPolicy] = None,
    volunteer_profiles: Optional[List[HardwareProfile]] = None,
) -> RealWorldScenario:
    """Build the Table II deployment (nodes only — attach clients yourself).

    User endpoints ``u01..`` are registered but no client objects are
    created; experiments decide the strategy per user.
    """
    config = config or SystemConfig()
    system = EdgeSystem(config, global_policy=global_policy, manager_point=CLOUD_POINT)
    placement_rng = system.streams.get("placement")
    metro = MetroArea(center=MSP_CENTER, radius_km=16.0, rng=placement_rng)

    volunteer_ids: List[str] = []
    if include_volunteers:
        for profile in volunteer_profiles or VOLUNTEER_PROFILES:
            point = metro.sample(PlacementStyle.GAUSSIAN)
            isp = METRO_ISPS[len(volunteer_ids) % len(METRO_ISPS)]
            system.add_node(
                profile.name,
                profile,
                EndpointSpec(
                    point,
                    tier=NetworkTier.HOME_WIFI,
                    isp=isp,
                    uplink_mbps=40.0,
                    downlink_mbps=300.0,
                    # "volunteer-based edge nodes ... with heterogeneous
                    # network access" (Fig. 1): last-mile quality varies a
                    # lot more than metro distance does. The spread keeps
                    # the class mean below the Local Zone's (Fig. 1's
                    # headline) while individual volunteers can land above
                    # it (Fig. 1's spread).
                    access_extra_ms=placement_rng.uniform(0.0, 12.0),
                ),
            )
            volunteer_ids.append(profile.name)

    dedicated_ids: List[str] = []
    if include_dedicated:
        for profile in DEDICATED_PROFILES:
            system.add_node(
                profile.name,
                profile,
                EndpointSpec(
                    LOCAL_ZONE_POINT,
                    tier=NetworkTier.LOCAL_ZONE,
                    uplink_mbps=1000.0,
                    downlink_mbps=1000.0,
                ),
                dedicated=True,
            )
            dedicated_ids.append(profile.name)

    cloud_id: Optional[str] = None
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
        system.add_node(
            elastic_cloud.name,
            elastic_cloud,
            EndpointSpec(
                CLOUD_POINT,
                tier=NetworkTier.CLOUD,
                uplink_mbps=10_000.0,
                downlink_mbps=10_000.0,
            ),
            dedicated=True,
        )
        cloud_id = elastic_cloud.name

    user_ids: List[str] = []
    for i in range(n_users):
        user_id = f"u{i + 1:02d}"
        point = metro.sample(PlacementStyle.UNIFORM_DISC)
        isp = METRO_ISPS[i % len(METRO_ISPS)]
        system.add_client_endpoint(
            user_id,
            EndpointSpec(
                point,
                tier=NetworkTier.HOME_WIFI,
                isp=isp,
                uplink_mbps=20.0,
                downlink_mbps=200.0,
                access_extra_ms=placement_rng.uniform(0.0, 4.0),
            ),
        )
        user_ids.append(user_id)

    return RealWorldScenario(
        system=system,
        volunteer_ids=volunteer_ids,
        dedicated_ids=dedicated_ids,
        cloud_id=cloud_id,
        user_ids=user_ids,
    )


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


@dataclass
class EmulationScenario:
    """Handles for the emulation builders."""

    system: EdgeSystem
    node_ids: List[str]
    user_ids: List[str]
    expected_rtt: Dict[tuple, float]


def emulation_node_profiles(
    mix: tuple = EMULATION_NODE_MIX,
) -> List[HardwareProfile]:
    """Expand a (profile name, count) mix into a profile list."""
    profiles: List[HardwareProfile] = []
    for name, count in mix:
        profiles.extend([EMULATION_PROFILES[name]] * count)
    return profiles


def build_emulation_system(
    config: Optional[SystemConfig] = None,
    *,
    n_users: int = 15,
    node_mix: tuple = EMULATION_NODE_MIX,
    spawn_nodes: bool = True,
    region_radius_km: float = 80.0,
    global_policy: Optional[GlobalSelectionPolicy] = None,
) -> EmulationScenario:
    """Build the §V-D1 emulation world.

    The paper configures pairwise latency "using tc with real-world
    measurement data", with RTTs of 8-55 ms "in the corresponding
    geo-distribution" of entities "within 50 miles" — i.e. the emulated
    latencies are distance-correlated. We reproduce that with the
    distance RTT model over an 80 km (~50 mi) region plus heterogeneous
    per-endpoint access overheads, which spans the same 8-55 ms range.
    Set ``spawn_nodes=False`` for churn experiments that create nodes
    from a trace instead.
    """
    config = config or SystemConfig()
    rtt_model = DistanceRttModel(
        jitter=JitterModel(sigma=0.06, spike_probability=0.005),
    )
    topology = NetworkTopology(rtt_model=rtt_model)
    system = EdgeSystem(config, topology=topology, global_policy=global_policy)
    placement_rng = system.streams.get("placement")
    metro = MetroArea(center=MSP_CENTER, radius_km=region_radius_km, rng=placement_rng)

    node_ids: List[str] = []
    if spawn_nodes:
        index = 1
        for name, count in node_mix:
            profile = EMULATION_PROFILES[name]
            for _ in range(count):
                node_id = f"e{index:02d}-{name}"
                system.add_node(
                    node_id,
                    profile,
                    EndpointSpec(
                        metro.sample(PlacementStyle.UNIFORM_DISC),
                        tier=NetworkTier.HOME_WIFI,
                        access_extra_ms=placement_rng.uniform(0.0, 12.0),
                    ),
                )
                node_ids.append(node_id)
                index += 1

    user_ids: List[str] = []
    for i in range(n_users):
        user_id = f"u{i + 1:02d}"
        system.add_client_endpoint(
            user_id,
            EndpointSpec(
                metro.sample(PlacementStyle.UNIFORM_DISC),
                tier=NetworkTier.HOME_WIFI,
                uplink_mbps=50.0,
                access_extra_ms=placement_rng.uniform(0.0, 12.0),
            ),
        )
        user_ids.append(user_id)

    expected = {
        (u, n): topology.expected_rtt_ms(u, n) for u in user_ids for n in node_ids
    }
    return EmulationScenario(
        system=system, node_ids=node_ids, user_ids=user_ids, expected_rtt=expected
    )


#: Convenience alias for churn experiments wanting a client factory type.
ClientFactory = Callable[[EdgeSystem, str], object]
