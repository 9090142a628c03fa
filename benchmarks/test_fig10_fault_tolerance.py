"""Fig. 10 — fault tolerance under churn.

Paper: (a) reactive re-connection leaves "an unacceptable delay gap for
latency-critical applications" versus the proactive switch; (b) "TopN=2
can dramatically reduce the number of failures ... Starting at TopN=3,
the number of failures can be reduced to 0."
"""

from conftest import run_once, show

from repro.experiments.churn_experiment import run_fault_tolerance


def test_fig10_fault_tolerance(benchmark, bench_config):
    result = run_once(benchmark, run_fault_tolerance, bench_config)

    show(result.downtime_table())
    show(result.failures_table())
    print(f"  reactive/proactive downtime ratio: {result.downtime_ratio:.1f}x")

    # (a) reactive recovery costs a multiple of the proactive switch.
    assert result.proactive_events > 0 and result.reactive_events > 0
    assert result.downtime_ratio > 2.0

    # (b) failures drop dramatically at TopN=2 and (near-)vanish by 3+.
    failures = result.failures_by_topn
    assert failures[1] > 0
    assert failures[2] <= failures[1] / 2
    assert failures[3] <= 1
    assert failures[4] <= 1 and failures[5] <= 1
