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

from conftest import published

TOP_NS = (1, 2, 3, 4, 5)


def test_fig9_topn_sweep():
    fig9 = published("fig9")

    def column(name):
        return {n: fig9.mean(f"{n} | {name}") for n in TOP_NS}

    probes = column("(a) probes")
    invocations = column("(b) test invocations")
    latency = column("(c) avg ms 60-120s")
    fairness = column("(d) fairness std")
    failures = column("failures")

    # (a) probing grows monotonically and substantially with TopN.
    assert [probes[n] for n in TOP_NS] == sorted(probes.values())
    assert probes[5] > 2.0 * probes[1]
    # (b) the cache keeps invocation growth far below probing growth, and
    # probing never drives invocations: far fewer invocations than probes.
    assert abs(invocations[5] - invocations[1]) < 0.5 * (probes[5] - probes[1])
    assert all(invocations[n] < probes[n] for n in TOP_NS)
    # (c) latency: TopN >= 2 values are fairly close (within a 40% band).
    close = [latency[n] for n in TOP_NS if n >= 2]
    assert max(close) < min(close) * 1.4
    # (d) fairness is worst at TopN=1.
    assert fairness[1] > fairness[3]

    # Fig. 10(b): failures drop dramatically at TopN=2, their whole
    # interval at TopN=1 above zero, and are 0 on every seed from TopN=3.
    at_one = fig9.agg("1 | failures")
    assert at_one.mean - at_one.ci_half_width > 0
    assert failures[2] <= failures[1] / 2
    for metrics in fig9.per_seed():
        assert [metrics[f"{n} | failures"] for n in TOP_NS[2:]] == [0, 0, 0]
