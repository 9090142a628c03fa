"""Property-style tests for the experiment scenario builders."""

import pytest

from repro.core.config import SystemConfig
from repro.core.system import EdgeSystem
from repro.experiments.scenario import (
    CHURN_NODE_MIX,
    EMULATION_NODE_MIX,
    emulation_node_profiles,
    emulation_topology,
    emulation_world,
    real_world,
)
from repro.geo.region import MSP_CENTER
from repro.net.latency import NetworkTier


def test_real_world_layout_is_seed_deterministic():
    def layout(seed):
        world = real_world(seed, n_users=5)
        entries = [(n.node_id, n.spec) for n in world.nodes]
        entries += [(u.user_id, u.spec) for u in world.users]
        return {eid: (spec.point.lat, spec.point.lon) for eid, spec in entries}

    assert layout(5) == layout(5)
    assert layout(5) != layout(6)


def test_real_world_volunteers_within_metro():
    world = real_world(5, n_users=3)
    for node in world.nodes:
        if node.spec.tier is NetworkTier.HOME_WIFI:
            assert MSP_CENTER.distance_km(node.spec.point) <= 17.0


def test_real_world_cloud_is_far():
    world = real_world(5, n_users=1)
    (cloud,) = [n for n in world.nodes if n.spec.tier is NetworkTier.CLOUD]
    assert MSP_CENTER.distance_km(cloud.spec.point) > 500.0


def test_real_world_users_have_isps_and_uplinks():
    world = real_world(5, n_users=6)
    for user in world.users:
        assert user.spec.isp is not None
        assert user.spec.uplink_mbps == 20.0


def test_real_world_dedicated_flag_set():
    world = real_world(5, n_users=1)
    system = EdgeSystem(SystemConfig(seed=5), world=world)
    for node in world.nodes:
        volunteer = node.spec.tier is NetworkTier.HOME_WIFI
        assert node.dedicated is not volunteer
        assert system.nodes[node.node_id].dedicated is node.dedicated


def test_real_world_cloud_is_elastic():
    world = real_world(5, n_users=1)
    (cloud_id,) = world.node_ids_on(NetworkTier.CLOUD)
    cloud = EdgeSystem(SystemConfig(seed=5), world=world).nodes[cloud_id]
    # elastic: can absorb many concurrent frames without queueing
    assert cloud.profile.parallelism >= 16


def expected_rtts(seed, n_users=15):
    """Expected RTT per (user, node) pair over the emulation network."""
    world = emulation_world(seed, n_users=n_users)
    system = EdgeSystem(
        SystemConfig(seed=seed), world=world, topology=emulation_topology()
    )
    return {
        (u, n): system.topology.expected_rtt_ms(u, n)
        for u in world.user_ids
        for n in world.node_ids
    }


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_emulation_rtt_range_matches_paper(seed):
    """§V-D1: pairwise RTTs of 8-55 ms."""
    rtts = list(expected_rtts(seed).values())
    assert min(rtts) >= 5.0
    assert max(rtts) <= 70.0
    # genuine heterogeneity: a >2x spread between best and worst pairs
    assert max(rtts) > 2.0 * min(rtts)


def test_emulation_node_mix_counts():
    profiles = emulation_node_profiles(EMULATION_NODE_MIX)
    names = [p.name for p in profiles]
    assert names.count("t2.medium") == 4
    assert names.count("t2.xlarge") == 4
    assert names.count("t2.2xlarge") == 1


def test_churn_node_mix_counts():
    profiles = emulation_node_profiles(CHURN_NODE_MIX)
    names = [p.name for p in profiles]
    assert names.count("t2.medium") == 8
    assert names.count("t2.xlarge") == 8
    assert names.count("t2.2xlarge") == 2


def test_emulation_spawn_nodes_false_registers_users_only():
    world = emulation_world(3, spawn_nodes=False)
    system = EdgeSystem(
        SystemConfig(seed=3), world=world, topology=emulation_topology()
    )
    assert world.node_ids == ()
    assert system.alive_node_count() == 0
    assert len(world.user_ids) == 15


def test_emulation_expected_rtt_covers_all_pairs():
    rtts = expected_rtts(3, n_users=4)
    assert len(rtts) == 4 * 9
    for (user, node), value in rtts.items():
        assert user.startswith("u") and node.startswith("e")
        assert value > 0
