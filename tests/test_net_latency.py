"""Unit tests for the RTT model and jitter."""

import random

import pytest

from repro.geo.point import GeoPoint
from repro.net.latency import DistanceRttModel, JitterModel, NetworkTier
from repro.net.topology import EndpointSpec


def make_endpoint(lat=44.97, lon=-93.26, tier=NetworkTier.HOME_WIFI, **kwargs):
    return EndpointSpec(GeoPoint(lat, lon), tier=tier, **kwargs)


# ----------------------------------------------------------------------
# JitterModel
# ----------------------------------------------------------------------
def test_jitter_zero_sigma_zero_spikes_is_identity():
    jitter = JitterModel(sigma=0.0, spike_probability=0.0)
    assert jitter.apply(25.0, random.Random(1)) == 25.0


def test_jitter_is_mean_preserving():
    jitter = JitterModel(sigma=0.2, spike_probability=0.0)
    rng = random.Random(3)
    samples = [jitter.apply(50.0, rng) for _ in range(20_000)]
    assert sum(samples) / len(samples) == pytest.approx(50.0, rel=0.02)


def test_jitter_spikes_add_latency():
    jitter = JitterModel(sigma=0.0, spike_probability=1.0, spike_ms=30.0)
    rng = random.Random(4)
    samples = [jitter.apply(10.0, rng) for _ in range(2_000)]
    assert sum(samples) / len(samples) == pytest.approx(40.0, rel=0.1)


def lognormvariate_apply(jitter, base_ms, rng):
    """``JitterModel.apply`` as first written, on ``rng.lognormvariate``:
    the reference its ``exp(normalvariate)`` form must equal bit for bit.
    This is the test that notices a Python release changing what
    ``lognormvariate`` does."""
    value = base_ms
    if jitter.sigma > 0:
        value *= rng.lognormvariate(0.0, jitter.sigma) * jitter._mean_correction
    if jitter.spike_probability > 0 and rng.random() < jitter.spike_probability:
        value += rng.expovariate(1.0 / jitter.spike_ms)
    return value


@pytest.mark.parametrize(
    "jitter",
    [
        JitterModel(),  # the DistanceRttModel default: ~1 % spikes
        JitterModel(sigma=0.08, spike_probability=0.25),
        JitterModel(sigma=0.0, spike_probability=0.5),  # spike branch alone
        JitterModel(sigma=0.3, spike_probability=0.0),
    ],
    ids=["default", "spiky", "spikes-only", "lognormal-only"],
)
def test_jitter_apply_is_bit_equal_to_the_lognormvariate_formulation(jitter):
    rng, reference_rng = random.Random(2022), random.Random(2022)
    spikes = 0
    for i in range(10_000):
        base_ms = 4.0 + (i % 97) * 0.83
        got = jitter.apply(base_ms, rng)
        assert got == lognormvariate_apply(jitter, base_ms, reference_rng)
        if jitter.sigma == 0 and got != base_ms:
            spikes += 1
    assert rng.getstate() == reference_rng.getstate()
    if jitter.sigma == 0:
        assert 4_000 < spikes < 6_000  # the spike branch really ran


def test_jitter_validates_parameters():
    with pytest.raises(ValueError):
        JitterModel(sigma=-0.1)
    with pytest.raises(ValueError):
        JitterModel(spike_probability=1.5)


# ----------------------------------------------------------------------
# DistanceRttModel
# ----------------------------------------------------------------------
def test_distance_rtt_grows_with_distance():
    model = DistanceRttModel()
    near = make_endpoint(44.98, -93.26)
    far = make_endpoint(41.88, -87.63)  # Chicago
    user = make_endpoint(44.97, -93.25)
    assert model.expected_rtt_ms(user, far) > model.expected_rtt_ms(user, near)


def test_tier_inflation_orders_volunteer_below_cloud():
    model = DistanceRttModel()
    user = make_endpoint()
    volunteer = make_endpoint(44.96, -93.24, NetworkTier.HOME_WIFI)
    cloud = make_endpoint(44.96, -93.24, NetworkTier.CLOUD)
    assert model.expected_rtt_ms(user, volunteer) < model.expected_rtt_ms(user, cloud)


def test_access_extra_adds_round_trip_cost():
    model = DistanceRttModel()
    user = make_endpoint()
    clean = make_endpoint(44.96, -93.24)
    noisy = make_endpoint(44.96, -93.24, access_extra_ms=10.0)
    delta = model.expected_rtt_ms(user, noisy) - model.expected_rtt_ms(user, clean)
    assert delta == pytest.approx(20.0)  # 10 ms each way


def test_same_isp_discount_applies():
    model = DistanceRttModel(same_isp_discount_ms=2.0)
    a = make_endpoint(44.97, -93.25, isp="comcast")
    b_same = make_endpoint(44.96, -93.24, isp="comcast")
    b_other = make_endpoint(44.96, -93.24, isp="usi")
    assert model.expected_rtt_ms(a, b_same) == pytest.approx(
        model.expected_rtt_ms(a, b_other) - 2.0
    )


def test_distance_model_validates_params():
    with pytest.raises(ValueError):
        DistanceRttModel(floor_ms=-1.0)
    with pytest.raises(ValueError):
        DistanceRttModel(path_stretch=0.5)


def test_samples_center_on_expected():
    model = DistanceRttModel(jitter=JitterModel(sigma=0.1, spike_probability=0.0))
    user = make_endpoint()
    node = make_endpoint(44.9, -93.1)
    rng = random.Random(11)
    expected = model.expected_rtt_ms(user, node)
    samples = [model.sample_rtt_ms(user, node, rng) for _ in range(5_000)]
    assert sum(samples) / len(samples) == pytest.approx(expected, rel=0.03)
