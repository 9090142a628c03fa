"""Unit tests for RTT models and jitter."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.geo.point import GeoPoint
from repro.net.latency import (
    DistanceRttModel,
    EndpointInfo,
    HashedPairRttModel,
    JitterModel,
    MatrixRttModel,
    NetworkTier,
)


def make_endpoint(eid, lat=44.97, lon=-93.26, tier=NetworkTier.HOME_WIFI, **kwargs):
    return EndpointInfo(endpoint_id=eid, point=GeoPoint(lat, lon), tier=tier, **kwargs)


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
    near = make_endpoint("near", 44.98, -93.26)
    far = make_endpoint("far", 41.88, -87.63)  # Chicago
    user = make_endpoint("user", 44.97, -93.25)
    assert model.expected_rtt_ms(user, far) > model.expected_rtt_ms(user, near)


def test_tier_inflation_orders_volunteer_below_cloud():
    model = DistanceRttModel()
    user = make_endpoint("user")
    volunteer = make_endpoint("vol", 44.96, -93.24, NetworkTier.HOME_WIFI)
    cloud = make_endpoint("cloud", 44.96, -93.24, NetworkTier.CLOUD)
    assert model.expected_rtt_ms(user, volunteer) < model.expected_rtt_ms(user, cloud)


def test_access_extra_adds_round_trip_cost():
    model = DistanceRttModel()
    user = make_endpoint("user")
    clean = make_endpoint("clean", 44.96, -93.24)
    noisy = EndpointInfo(
        "noisy", GeoPoint(44.96, -93.24), NetworkTier.HOME_WIFI, access_extra_ms=10.0
    )
    delta = model.expected_rtt_ms(user, noisy) - model.expected_rtt_ms(user, clean)
    assert delta == pytest.approx(20.0)  # 10 ms each way


def test_same_isp_discount_applies():
    model = DistanceRttModel(same_isp_discount_ms=2.0)
    a = EndpointInfo("a", GeoPoint(44.97, -93.25), isp="comcast")
    b_same = EndpointInfo("b", GeoPoint(44.96, -93.24), isp="comcast")
    b_other = EndpointInfo("c", GeoPoint(44.96, -93.24), isp="usi")
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
    user = make_endpoint("user")
    node = make_endpoint("node", 44.9, -93.1)
    rng = random.Random(11)
    expected = model.expected_rtt_ms(user, node)
    samples = [model.sample_rtt_ms(user, node, rng) for _ in range(5_000)]
    assert sum(samples) / len(samples) == pytest.approx(expected, rel=0.03)


# ----------------------------------------------------------------------
# MatrixRttModel
# ----------------------------------------------------------------------
def test_matrix_model_set_and_get():
    model = MatrixRttModel(default_ms=30.0)
    model.set_rtt("u1", "e1", 12.0)
    a, b = make_endpoint("u1"), make_endpoint("e1")
    assert model.expected_rtt_ms(a, b) == 12.0
    assert model.expected_rtt_ms(b, a) == 12.0  # symmetric by default


def test_matrix_model_asymmetric_entry():
    model = MatrixRttModel()
    model.set_rtt("u1", "e1", 12.0, symmetric=False)
    assert model.base_rtt_ms("u1", "e1") == 12.0
    assert model.base_rtt_ms("e1", "u1") == model.default_ms


def test_matrix_model_default_for_unknown_pairs():
    model = MatrixRttModel(default_ms=33.0)
    assert model.base_rtt_ms("x", "y") == 33.0


def test_matrix_model_self_pair_is_near_zero():
    assert MatrixRttModel().base_rtt_ms("x", "x") < 1.0


def test_matrix_model_rejects_negative():
    with pytest.raises(ValueError):
        MatrixRttModel().set_rtt("a", "b", -1.0)


def test_matrix_configured_pairs_counts_directed():
    model = MatrixRttModel()
    model.set_rtt("a", "b", 10.0)
    assert model.configured_pairs() == 2


# ----------------------------------------------------------------------
# HashedPairRttModel
# ----------------------------------------------------------------------
def test_hashed_model_is_deterministic_and_symmetric():
    model = HashedPairRttModel(8.0, 55.0, seed=7)
    assert model.base_rtt_ms("u1", "e1") == model.base_rtt_ms("e1", "u1")
    again = HashedPairRttModel(8.0, 55.0, seed=7)
    assert model.base_rtt_ms("u1", "e1") == again.base_rtt_ms("u1", "e1")


def test_hashed_model_seed_changes_values():
    a = HashedPairRttModel(8.0, 55.0, seed=1).base_rtt_ms("u1", "e1")
    b = HashedPairRttModel(8.0, 55.0, seed=2).base_rtt_ms("u1", "e1")
    assert a != b


def test_hashed_model_validates_range():
    with pytest.raises(ValueError):
        HashedPairRttModel(10.0, 5.0)


@given(st.text(min_size=1, max_size=10), st.text(min_size=1, max_size=10))
def test_property_hashed_rtt_in_range(a, b):
    model = HashedPairRttModel(8.0, 55.0, seed=0)
    value = model.base_rtt_ms(a, b)
    if a == b:
        assert value < 1.0
    else:
        assert 8.0 <= value <= 55.0
