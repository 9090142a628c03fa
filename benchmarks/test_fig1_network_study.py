"""Fig. 1 — RTT from metro users to volunteers / Local Zone / cloud.

Paper: volunteer edge nodes in the same metro deliver lower RTT than the
AWS Local Zone, and both sit far below the closest cloud region.
"""

from conftest import below, published


def test_fig1_network_study():
    fig1 = published("fig1")

    def agg(node_class, stat):
        return fig1.agg(f"{node_class} | {stat}")

    # The cloud is a multiple above both edge classes, far outside every
    # interval.
    for edge in ("volunteer", "local_zone"):
        assert fig1.mean("cloud | mean") > 2.0 * fig1.mean(f"{edge} | mean")
        assert below(agg(edge, "mean"), agg("cloud", "mean"))
    # The best volunteers reach below the Local Zone (on the means: the
    # minima's intervals overlap)...
    assert fig1.mean("volunteer | min") < fig1.mean("local_zone | min")
    # ...and the volunteer class spreads far above it.
    assert below(agg("local_zone", "p90"), agg("volunteer", "p90"))
