"""Fig. 8 — average latency of 10 static users under high node churn,
against the alive-node stair line (TopN = 3).

Paper: "Whenever new edge nodes join the system (upward steps), the
average latency correspondingly decreases within seconds. ... When edge
nodes leave the system (downward steps), the average latency does
increase but there is no service disruption."
"""

from conftest import run_once, show

from repro.experiments.churn_experiment import run_churn_trace


def test_fig8_churn_trace(benchmark, bench_config):
    result = run_once(benchmark, run_churn_trace, bench_config)

    rows = show(result.table())

    assert result.total_nodes == 18  # the paper's selected configuration

    # Shape: after the initial scramble the service is continuously
    # usable; the worst 5-s window stays bounded.
    steady = {t: v for t, v in result.latency_trace if t >= 30_000.0}
    assert steady, "no steady-state windows recorded"
    assert max(steady.values()) < 400.0
    assert min(steady.values()) < 100.0

    # One row per 5-s window over the 3 minutes, whatever the seed.
    assert [row[0] for row in rows] == [f"{t}s" for t in range(0, 180, 5)]

    # Population/latency anti-correlation: windows with more alive nodes
    # (at the window start) average lower latency than windows with fewer.
    rich = [ms for _, alive, ms in rows[6:] if alive >= 6 and ms is not None]
    poor = [ms for _, alive, ms in rows[6:] if alive <= 3 and ms is not None]
    if rich and poor:
        assert sum(rich) / len(rich) < sum(poor) / len(poor)
