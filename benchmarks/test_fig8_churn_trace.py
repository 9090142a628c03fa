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

    show(result.population_table())
    show(result.latency_table())

    assert result.total_nodes == 18  # the paper's selected configuration

    # Shape: after the initial scramble the service is continuously
    # usable; the worst 5-s window stays bounded.
    steady = {t: v for t, v in result.latency_trace if t >= 30_000.0}
    assert steady, "no steady-state windows recorded"
    assert max(steady.values()) < 400.0
    assert min(steady.values()) < 100.0

    # Population/latency anti-correlation: windows with more alive nodes
    # average lower latency than windows with fewer.
    def population_at(t_ms):
        count = 0
        for step_t, step_c in result.population_steps:
            if step_t > t_ms:
                break
            count = step_c
        return count

    rich = [v for t, v in steady.items() if population_at(t) >= 6]
    poor = [v for t, v in steady.items() if population_at(t) <= 3]
    if rich and poor:
        assert sum(rich) / len(rich) < sum(poor) / len(poor)
