"""Fig. 5 — average end-to-end latency with increasing users (real world).

Paper: the client-centric approach balances load best as users pile in,
"achiev[ing] 18%-46% latency reduction compared to resource-aware,
locality-based and dedicated-edge-only approaches under high user
demand"; dedicated-only degrades to worse-than-cloud at 15 users.
"""

from conftest import run_once, show

from repro.experiments.realworld import STRATEGIES, run_elasticity_sweep

USER_COUNTS = [1, 3, 5, 7, 9, 11, 13, 15]


def test_fig5_elasticity(benchmark, bench_config):
    result = run_once(
        benchmark, run_elasticity_sweep, bench_config, user_counts=USER_COUNTS
    )

    show(result.table())
    ours_at_15 = result.series("client_centric")[-1]
    for strategy in STRATEGIES:
        if strategy != "client_centric":
            other = result.series(strategy)[-1]
            print(
                f"  reduction vs {strategy} at 15 users: "
                f"{(1 - ours_at_15 / other) * 100:+.0f}%"
            )

    geo = result.series("geo_proximity")[-1]
    dedicated = result.series("dedicated_only")[-1]
    cloud = result.series("closest_cloud")[-1]
    wrr = result.series("resource_aware")[-1]

    # Shape at high demand (the paper's headline claims):
    assert ours_at_15 < geo, "ours must beat locality-based selection"
    assert ours_at_15 < dedicated, "ours must beat dedicated-only"
    assert ours_at_15 < cloud, "ours must beat the cloud baseline"
    assert ours_at_15 < wrr * 1.1, "ours must at least match resource-aware WRR"
    # Dedicated-only collapses under 15 users: worse than the cloud.
    assert dedicated > cloud
    # The cloud line is flat (elastic but far): <10% drift across counts.
    cloud_series = result.series("closest_cloud")
    assert max(cloud_series) < min(cloud_series) * 1.15
    # At a single user every edge strategy beats the WAN round trip.
    for strategy in ("client_centric", "geo_proximity", "resource_aware"):
        assert result.series(strategy)[0] < result.series("closest_cloud")[0]
