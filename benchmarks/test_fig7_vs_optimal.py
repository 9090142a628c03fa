"""Fig. 7 — settled average latency vs the offline optimal assignment.

Paper: "our approach has about 12% higher latency than the optimal, as
compared to 102% and 51% higher respectively for the locality-based and
resource-aware selection approaches."
"""

from conftest import below, published

GAP = "vs optimal %"


def test_fig7_vs_optimal():
    fig7 = published("fig7")
    ours = fig7.agg(f"client_centric | {GAP}")
    wrr = fig7.agg(f"resource_aware | {GAP}")
    geo = fig7.agg(f"geo_proximity | {GAP}")

    # Ours closest to optimal, then resource-aware, then geo far off.
    assert ours.mean <= wrr.mean + 2.0
    assert below(wrr, geo)
    # Ours is near-optimal (paper: +12%; we accept anything under +30%).
    assert ours.mean < 30.0
    # Geo pays roughly double the optimal (paper: +102%), its whole
    # interval above +40%.
    assert geo.mean - geo.ci_half_width > 40.0
