"""Fig. 9 — influence of TopN (1..5) over the node-churn experiment.

Paper:
  (a) probing requests increase linearly with TopN;
  (b) test-workload invocations grow much more slowly (cache effect);
  (c) latency is fairly close across TopN with diminishing returns
      beyond TopN=3;
  (d) larger TopN improves fairness (lower std-dev across users).
"""

from conftest import run_once, show

from repro.experiments.churn_experiment import run_topn_sweep


def test_fig9_topn_sweep(benchmark, bench_config):
    result = run_once(benchmark, run_topn_sweep, bench_config)

    show(result.table())

    probes = [result.probes[n] for n in result.top_ns]
    invocations = [result.test_invocations[n] for n in result.top_ns]

    # (a) probing grows monotonically and substantially with TopN.
    assert probes == sorted(probes)
    assert probes[-1] > 2.0 * probes[0]

    # (b) the cache keeps invocation growth far below probing growth:
    # the invocation spread across TopN is a fraction of the probe spread.
    probe_spread = probes[-1] - probes[0]
    invocation_spread = abs(invocations[-1] - invocations[0])
    assert invocation_spread < 0.5 * probe_spread
    # and probing never drives invocations: far fewer invocations than probes
    assert all(
        result.test_invocations[n] < result.probes[n] for n in result.top_ns
    )

    # (c) latency: TopN>=2 values are fairly close (within 40% band).
    latencies = [result.avg_latency_ms[n] for n in result.top_ns if n >= 2]
    assert max(latencies) < min(latencies) * 1.4

    # (d) fairness improves from TopN=1 to TopN>=3.
    assert result.fairness_std_ms[1] > result.fairness_std_ms[3]
