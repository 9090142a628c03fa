"""Extension — QoS-constrained admission control (§IV-D).

The paper sketches the mechanism; this bench quantifies the trade: under
overload, filtering candidates by the QoS bound rejects surplus users
and protects the admitted population's latency, whereas open-door
admission spreads violations across everyone.
"""

from conftest import below, published


def test_ext_qos_admission():
    qos = published("qos")

    for metrics in qos.per_seed():
        # Light load: everyone admitted, on every seed.
        assert metrics["5 | admitted (QoS)"] == 5
        # Overload: admission control engages on every seed.
        assert metrics["20 | admitted (QoS)"] < 20
    # ...and protects the admitted users' latency, outside both
    # intervals, and their violation fraction on the means.
    assert below(qos.agg("20 | mean ms (QoS)"), qos.agg("20 | mean ms (open)"))
    assert qos.mean("20 | violations (QoS)") < qos.mean("20 | violations (open)")
