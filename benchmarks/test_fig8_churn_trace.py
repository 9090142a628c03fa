"""Fig. 8 — average latency of 10 static users under high node churn,
against the alive-node stair line (TopN = 3).

Paper: "Whenever new edge nodes join the system (upward steps), the
average latency correspondingly decreases within seconds. ... When edge
nodes leave the system (downward steps), the average latency does
increase but there is no service disruption."
"""

from conftest import published

from repro.metrics.stats import mean

WINDOWS_S = range(0, 180, 5)


def test_fig8_churn_trace():
    fig8 = published("fig8")
    rich, poor = [], []
    for metrics in fig8.per_seed():
        # Frames complete in every 5-s window (a window without one has no
        # latency cell): no service disruption.
        latency = {t: metrics.get(f"{t}s | avg latency ms") for t in WINDOWS_S}
        assert None not in latency.values()
        # From 30 s on, after the initial scramble, every seed has a window
        # under 100 ms, and windows that start with more alive nodes
        # average lower latency than windows with fewer.
        steady = [(metrics[f"{t}s | alive nodes"], latency[t]) for t in WINDOWS_S if t >= 30]
        assert min(ms for _, ms in steady) < 100.0
        rich.append([ms for alive, ms in steady if alive >= 6])
        poor.append([ms for alive, ms in steady if alive <= 3])
    # Pooled over the seeds, and on every seed that has both kinds.
    both = [(r, p) for r, p in zip(rich, poor) if r and p]
    assert len(both) >= 4
    assert all(mean(r) < mean(p) for r, p in both)
    assert mean(sum(rich, [])) < mean(sum(poor, []))
    # After the scramble all but two window means stay low; those two
    # are one seed's population dip each.
    means = [fig8.mean(f"{t}s | avg latency ms") for t in WINDOWS_S if t >= 15]
    assert sum(ms >= 115.0 for ms in means) <= 2
