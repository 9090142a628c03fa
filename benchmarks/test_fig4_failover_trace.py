"""Fig. 4 — re-connect vs immediate connection switch upon node failure.

Paper: the re-connection approach suffers "a large service downtime to
re-discover an alternative edge node upon failure", while the proactive
approach "can immediately switch to a backup edge node maintaining the
continuous service".
"""

from conftest import run_once, show

from repro.experiments.realworld import run_failover_trace


def test_fig4_failover_trace(benchmark, bench_config):
    result = run_once(
        benchmark,
        run_failover_trace,
        bench_config,
        fail_at_ms=10_000.0,
        duration_ms=20_000.0,
    )

    show(result.table())
    # Print the latency trace around the failure for both approaches.
    for label, trace in (("proactive", result.proactive), ("reactive", result.reactive)):
        around = [
            (t, v)
            for t, v in trace
            if result.fail_at_ms - 1_000 <= t <= result.fail_at_ms + 4_000
        ]
        sampled = around[:: max(1, len(around) // 12)]
        print(f"  {label} trace (ms):", [f"{t/1000:.1f}s:{v:.0f}" for t, v in sampled])

    # Shape: the reactive spike dwarfs the proactive one (order of
    # magnitude in the paper's trace).
    assert result.reactive_peak_ms > 5.0 * result.proactive_peak_ms
    # Proactive service stays continuously usable (< 10x steady state).
    steady = [v for t, v in result.proactive if t < result.fail_at_ms]
    steady_mean = sum(steady) / len(steady)
    assert result.proactive_peak_ms < 10.0 * steady_mean
