"""Fig. 9 — influence of TopN (1..5) over the node-churn experiment,
and Fig. 10(b), the failures those same runs suffer.

Paper:
  (a) probing requests increase linearly with TopN;
  (b) test-workload invocations grow much more slowly (cache effect);
  (c) latency is fairly close across TopN with diminishing returns
      beyond TopN=3;
  (d) larger TopN improves fairness (lower std-dev across users);
  Fig. 10(b): "TopN=2 can dramatically reduce the number of failures
  ... Starting at TopN=3, the number of failures can be reduced to 0."
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

    # Fig. 10(b): failures drop dramatically at TopN=2 and (near-)vanish
    # by 3+.
    failures = result.uncovered_failures
    assert failures[1] > 0
    assert failures[2] <= failures[1] / 2
    assert failures[3] <= 1
    assert failures[4] <= 1 and failures[5] <= 1
