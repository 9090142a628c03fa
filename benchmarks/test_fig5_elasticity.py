"""Fig. 5 — average end-to-end latency with increasing users (real world).

Paper: the client-centric approach balances load best as users pile in,
"achiev[ing] 18%-46% latency reduction compared to resource-aware,
locality-based and dedicated-edge-only approaches under high user
demand"; dedicated-only degrades to worse-than-cloud at 15 users.
"""

from conftest import below, published

from repro.experiments.realworld import STRATEGIES

USER_COUNTS = (1, 3, 5, 7, 9, 11, 13, 15)


def test_fig5_elasticity():
    fig5 = published("fig5")

    def agg(strategy, users):
        return fig5.agg(f"{strategy} | {users}")

    def series(strategy):
        return [fig5.mean(f"{strategy} | {n}") for n in USER_COUNTS]

    # At high demand ours beats every other strategy outside both
    # intervals: locality-based, resource-aware WRR, dedicated-only and
    # the cloud.
    for strategy in STRATEGIES:
        if strategy != "client_centric":
            assert below(agg("client_centric", 15), agg(strategy, 15)), strategy
    # Dedicated-only collapses to worse than the cloud from 9 users on.
    for users in USER_COUNTS[USER_COUNTS.index(9):]:
        assert below(agg("closest_cloud", users), agg("dedicated_only", users)), users
    # The cloud line is flat (elastic but far): < 15% drift across counts.
    cloud = series("closest_cloud")
    assert max(cloud) < min(cloud) * 1.15
    # At a single user every edge strategy beats the WAN round trip.
    for strategy in ("client_centric", "geo_proximity", "resource_aware"):
        assert series(strategy)[0] < cloud[0], strategy
