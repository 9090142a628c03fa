"""Fig. 6 — per-user latency traces under three selection methods
(emulation; 15 users join every 10 s over 9 static EC2 nodes).

Paper: locality-based selection overloads local nodes (a few users
exceed 150 ms); resource-aware balances compute but misses network
heterogeneity; client-centric assigns every user a low-latency node and
rebalances dynamically via the proactive multi-node connections.
"""

from conftest import published

OVER = "users ever >150ms"
STEADY = "steady mean ms"


def test_fig6_user_traces():
    fig6 = published("fig6")

    # Nobody exceeds 150 ms under client-centric selection, on any seed;
    # geo overloads some users, its whole interval above zero.
    assert all(m[f"client_centric | {OVER}"] == 0 for m in fig6.per_seed())
    geo_over = fig6.agg(f"geo_proximity | {OVER}")
    assert geo_over.mean - geo_over.ci_half_width > 0
    # Steady-state ordering on the means: ours <= resource-aware < geo.
    ours, wrr, geo = (
        fig6.mean(f"{method} | {STEADY}")
        for method in ("client_centric", "resource_aware", "geo_proximity")
    )
    assert ours <= wrr * 1.05
    assert wrr < geo
