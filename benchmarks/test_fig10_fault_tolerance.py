"""Fig. 10(a) — fault tolerance under churn.

Paper: reactive re-connection leaves "an unacceptable delay gap for
latency-critical applications" versus the proactive switch. Fig. 10(b),
failures per TopN, is asserted on the Fig. 9 sweep's runs
(``test_fig9_topn_sweep.py``).
"""

from conftest import below, published

PROACTIVE = "proactive switch (ours)"
REACTIVE = "reactive re-connect"
DOWNTIME = "mean recovery downtime ms"


def test_fig10_fault_tolerance():
    fig10 = published("fig10")

    # Both approaches recover from failures on every seed...
    for metrics in fig10.per_seed():
        assert metrics[f"{PROACTIVE} | events"] > 0
        assert metrics[f"{REACTIVE} | events"] > 0
    # ...and reactive recovery costs a multiple of the proactive switch's
    # downtime, outside both intervals.
    assert fig10.mean(f"{REACTIVE} | {DOWNTIME}") > 2.0 * fig10.mean(f"{PROACTIVE} | {DOWNTIME}")
    assert below(fig10.agg(f"{PROACTIVE} | {DOWNTIME}"), fig10.agg(f"{REACTIVE} | {DOWNTIME}"))
