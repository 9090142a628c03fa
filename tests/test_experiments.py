"""Smoke tests for every experiment builder (tiny parameters).

The benchmarks run the full-size versions; here each experiment is
exercised end to end with reduced durations so regressions in the
builders surface in the unit suite within seconds.
"""

import pytest

from repro.core.config import SystemConfig
from repro.experiments.emulation import run_user_traces, run_vs_optimal
from repro.experiments.network_study import run_network_study
from repro.experiments.realworld import (
    run_elasticity_sweep,
    run_failover_trace,
    run_pairwise_selection,
    run_single_user_cdf,
)
from repro.core.system import EdgeSystem
from repro.experiments.scenario import emulation_topology, emulation_world, real_world
from repro.net.latency import NetworkTier


CONFIG = SystemConfig(seed=50)


def test_real_world_scenario_inventory():
    world = real_world(CONFIG.seed, n_users=4)
    assert world.node_ids_on(NetworkTier.HOME_WIFI) == ("V1", "V2", "V3", "V4", "V5")
    assert world.node_ids_on(NetworkTier.LOCAL_ZONE) == ("D6", "D7", "D8", "D9")
    assert world.node_ids_on(NetworkTier.CLOUD) == ("Cloud",)
    assert len(world.user_ids) == 4
    assert len(world.node_ids) == 10


def test_real_world_scenario_restrictions():
    world = real_world(
        CONFIG.seed, n_users=1, include_volunteers=False, include_cloud=False
    )
    assert world.node_ids_on(NetworkTier.HOME_WIFI) == ()
    assert world.node_ids_on(NetworkTier.CLOUD) == ()
    assert world.node_ids == ("D6", "D7", "D8", "D9")


def test_emulation_scenario_matches_paper_fleet():
    world = emulation_world(CONFIG.seed, n_users=3)
    assert len(world.node_ids) == 9
    mediums = [n for n in world.node_ids if "t2.medium" in n]
    assert len(mediums) == 4
    system = EdgeSystem(CONFIG, world=world, topology=emulation_topology())
    rtts = [
        system.topology.expected_rtt_ms(u, n)
        for u in world.user_ids
        for n in world.node_ids
    ]
    assert len(rtts) == 3 * 9
    assert min(rtts) >= 5.0 and max(rtts) <= 70.0


def test_fig1_network_study():
    result = run_network_study(CONFIG, n_users=4, probes_per_pair=3)
    summaries = result.summaries()
    assert set(summaries) == {"volunteer", "local_zone", "cloud"}
    # the paper's headline: cloud far above both edge classes
    assert summaries["cloud"].mean_ms > summaries["volunteer"].mean_ms
    assert summaries["cloud"].mean_ms > summaries["local_zone"].mean_ms


def test_fig1_validates_probe_count():
    with pytest.raises(ValueError):
        run_network_study(CONFIG, probes_per_pair=0)


def test_fig3_single_user_cdf():
    result = run_single_user_cdf(
        CONFIG, target_nodes=("V1", "V5"), duration_ms=6_000.0
    )
    assert set(result.latencies) == {"V1", "V5"}
    means = result.means()
    assert means["V1"] < means["V5"]  # faster hardware, similar network
    cdfs = result.cdfs()
    assert cdfs["V1"][-1][1] == pytest.approx(1.0)


def test_table3_pairwise_selection():
    result = run_pairwise_selection(
        CONFIG, n_probe_users=1, measure_duration_ms=5_000.0, select_duration_ms=5_000.0
    )
    user = result.user_ids[0]
    row = result.row(user)
    assert len(row) == len(result.node_ids)
    # the selected node should be (near) the row's minimum
    chosen = result.selected[user]
    chosen_ms = result.pairwise_ms[(user, chosen)]
    assert chosen_ms <= min(row) * 1.25


def test_fig4_failover_trace():
    result = run_failover_trace(CONFIG, fail_at_ms=5_000.0, duration_ms=10_000.0)
    # proactive switch avoids the re-discovery latency cliff
    assert result.proactive_peak_ms < result.reactive_peak_ms
    assert result.reactive_peak_ms > 500.0
    # ...and the proactive service stays continuously usable: its peak
    # after the failure is under 10x its own pre-failure mean.
    steady = [v for t, v in result.proactive if t < result.fail_at_ms]
    assert result.proactive_peak_ms < 10.0 * sum(steady) / len(steady)


def test_fig5_elasticity_sweep_small():
    result = run_elasticity_sweep(
        CONFIG,
        user_counts=[2],
        strategies=("client_centric", "closest_cloud"),
        settle_ms=4_000.0,
        measure_ms=5_000.0,
        join_stagger_ms=500.0,
    )
    ours = result.series("client_centric")[0]
    cloud = result.series("closest_cloud")[0]
    assert ours < cloud  # edge beats WAN at trivial load


def test_fig6_user_traces_small():
    result = run_user_traces(CONFIG, methods=("client_centric",), bin_ms=5_000.0)
    traces = result.traces["client_centric"]
    assert len(traces) == 15
    assert all(len(trace) > 0 for trace in traces.values())


def test_fig7_vs_optimal_small():
    result = run_vs_optimal(CONFIG, methods=("client_centric", "geo_proximity"))
    assert result.optimal_ms > 0
    # locality-blind-to-capacity lands far above; ours stays near optimal
    assert result.overhead_pct("client_centric") < result.overhead_pct(
        "geo_proximity"
    )
