"""Extension — QoS-constrained admission control (§IV-D).

The paper sketches the mechanism; this bench quantifies the trade: under
overload, filtering candidates by the QoS bound rejects surplus users
and protects the admitted population's latency, whereas open-door
admission spreads violations across everyone.
"""

from conftest import run_once, show

from repro.experiments.qos_admission import run_qos_admission

USER_COUNTS = [5, 10, 15, 20]
QOS_MS = 90.0


def test_ext_qos_admission(benchmark, bench_config):
    result = run_once(
        benchmark,
        run_qos_admission,
        bench_config,
        qos_latency_ms=QOS_MS,
        user_counts=USER_COUNTS,
    )

    show(result.table())

    # Light load: everyone admitted either way.
    assert result.with_qos[5].rejected == 0
    # Overload: admission control engages and protects latency.
    heavy_with = result.with_qos[20]
    heavy_without = result.without_qos[20]
    assert heavy_with.rejected > 0
    assert heavy_with.violation_rate < heavy_without.violation_rate
    assert heavy_with.admitted_mean_ms < heavy_without.admitted_mean_ms
