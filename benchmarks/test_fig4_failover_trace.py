"""Fig. 4 — re-connect vs immediate connection switch upon node failure.

Paper: the re-connection approach suffers "a large service downtime to
re-discover an alternative edge node upon failure", while the proactive
approach "can immediately switch to a backup edge node maintaining the
continuous service".
"""

from conftest import below, published

PROACTIVE = "proactive switch (ours)"
REACTIVE = "re-connect"


def test_fig4_failover_trace():
    fig4 = published("fig4")
    peak = "peak latency after failure (ms)"
    frames = "frames completed"

    # The reactive spike dwarfs the proactive one (an order of magnitude
    # in the paper's trace), far outside both intervals...
    assert fig4.mean(f"{REACTIVE} | {peak}") > 5.0 * fig4.mean(f"{PROACTIVE} | {peak}")
    assert below(fig4.agg(f"{PROACTIVE} | {peak}"), fig4.agg(f"{REACTIVE} | {peak}"))
    # ...and the downtime costs frames: the proactive client completes
    # more of them in the same 20 s.
    assert below(fig4.agg(f"{REACTIVE} | {frames}"), fig4.agg(f"{PROACTIVE} | {frames}"))
