"""Fig. 3 — CDF of end-to-end latency from one user to 4 edge servers.

Paper: well-connected volunteers (V1, V2) deliver better end-to-end
latency than the dedicated Local Zone instance (D6), because their
network proximity outweighs D6's hardware; the slow V4 trails.
"""

from conftest import run_once, show

from repro.experiments.realworld import run_single_user_cdf


def test_fig3_latency_cdf(benchmark, bench_config):
    result = run_once(
        benchmark,
        run_single_user_cdf,
        bench_config,
        target_nodes=("V1", "V2", "V4", "D6"),
        duration_ms=30_000.0,
    )

    means = result.means()
    show(result.table())
    show(result.cdf_table())

    # Shape (the paper's claim): well-connected volunteers "can deliver
    # better performance compared to dedicated nodes" — the best
    # volunteer beats D6 — and V1 (fast, near) is the overall winner.
    # Which volunteer trails depends on each one's network access draw,
    # in the paper's measurements as in ours.
    assert means["V1"] == min(means.values())
    assert means["V1"] < means["D6"]
    assert max(means.values()) > means["D6"]  # some volunteer loses to D6
    for points in result.cdfs().values():
        assert points[-1][1] == 1.0
