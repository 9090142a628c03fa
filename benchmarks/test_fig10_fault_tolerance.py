"""Fig. 10(a) — fault tolerance under churn.

Paper: reactive re-connection leaves "an unacceptable delay gap for
latency-critical applications" versus the proactive switch. Fig. 10(b),
failures per TopN, is asserted on the Fig. 9 sweep's runs
(``test_fig9_topn_sweep.py``).
"""

from conftest import run_once, show

from repro.experiments.churn_experiment import run_fault_tolerance


def test_fig10_fault_tolerance(benchmark, bench_config):
    result = run_once(benchmark, run_fault_tolerance, bench_config)

    show(result.table())
    print(f"  reactive/proactive downtime ratio: {result.downtime_ratio:.1f}x")

    # Reactive recovery costs a multiple of the proactive switch.
    assert result.proactive_events > 0 and result.reactive_events > 0
    assert result.downtime_ratio > 2.0
