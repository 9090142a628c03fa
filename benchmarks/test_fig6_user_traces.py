"""Fig. 6 — per-user latency traces under three selection methods
(emulation; 15 users join every 10 s over 9 static EC2 nodes).

Paper: locality-based selection overloads local nodes (a few users
exceed 150 ms); resource-aware balances compute but misses network
heterogeneity; client-centric assigns every user a low-latency node and
rebalances dynamically via the proactive multi-node connections.
"""

from conftest import run_once, show

from repro.experiments.emulation import run_user_traces


def test_fig6_user_traces(benchmark, bench_config):
    result = run_once(benchmark, run_user_traces, bench_config)

    rows = show(result.table())
    # Show one example user trace per method (the figure's content).
    for method in result.methods:
        trace = result.traces[method]["u01"]
        sampled = trace[:: max(1, len(trace) // 10)]
        print(f"  {method} / u01:", [f"{t/1000:.0f}s:{v:.0f}" for t, v in sampled])

    by_method = {row[0]: row for row in rows}
    # Shape: geo overloads users past 150 ms; ours keeps everyone under.
    assert by_method["geo_proximity"][3] > 0
    assert by_method["client_centric"][3] == 0
    # Steady-state ordering: ours <= resource-aware < geo.
    assert by_method["client_centric"][2] <= by_method["resource_aware"][2] * 1.05
    assert by_method["resource_aware"][2] < by_method["geo_proximity"][2]
    # Every user produced a trace under every method.
    for method in result.methods:
        assert len(result.traces[method]) == 15
