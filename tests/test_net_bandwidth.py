"""Unit tests for the transfer-delay model."""

import random

import pytest

from repro.net.bandwidth import BandwidthModel, transfer_ms


def test_transfer_ms_known_value():
    # 0.02 MB at 20 Mbps: 0.02e6*8 / 20e6 s = 8 ms
    assert transfer_ms(0.02e6, 20.0) == pytest.approx(8.0)


def test_transfer_ms_zero_size():
    assert transfer_ms(0.0, 10.0) == 0.0


def test_transfer_ms_validates():
    with pytest.raises(ValueError):
        transfer_ms(100.0, 0.0)
    with pytest.raises(ValueError):
        transfer_ms(-1.0, 10.0)


def test_bottleneck_is_minimum_of_up_and_down():
    model = BandwidthModel()
    assert model.bottleneck_mbps(20.0, 200.0) == 20.0
    assert model.bottleneck_mbps(100.0, 50.0) == 50.0


def test_defaults_used_when_unspecified():
    model = BandwidthModel(default_uplink_mbps=25.0, default_downlink_mbps=100.0)
    assert model.bottleneck_mbps(None, None) == 25.0


def test_expected_transfer_uses_bottleneck():
    model = BandwidthModel(contention_sigma=0.0)
    # sender uplink 20 dominates a 1000 Mbps receiver
    assert model.expected_transfer_ms(0.02e6, 20.0, 1000.0) == pytest.approx(8.0)


def test_uplink_dominates_regardless_of_edge_choice():
    """The paper's point: edge selection has limited effect on first-hop
    transfer; changing the receiver barely moves the delay."""
    model = BandwidthModel(contention_sigma=0.0)
    slow_receiver = model.expected_transfer_ms(0.02e6, 20.0, 200.0)
    fast_receiver = model.expected_transfer_ms(0.02e6, 20.0, 10_000.0)
    assert slow_receiver == fast_receiver


def test_sampled_transfer_centers_on_expected():
    model = BandwidthModel(contention_sigma=0.15)
    rng = random.Random(2)
    expected = model.expected_transfer_ms(0.02e6, 20.0)
    samples = [model.sample_transfer_ms(0.02e6, rng, 20.0) for _ in range(5_000)]
    assert sum(samples) / len(samples) == pytest.approx(expected, rel=0.05)


def test_sampled_transfer_is_bit_equal_to_the_lognormvariate_formulation():
    """``sample_transfer_ms`` inlines the bottleneck and draws
    ``exp(normalvariate)``; the reference goes through
    ``expected_transfer_ms`` and ``rng.lognormvariate`` as it first did."""
    model = BandwidthModel(contention_sigma=0.10)
    rng, reference_rng = random.Random(7), random.Random(7)
    caps = [(None, None), (40.0, 300.0), (400.0, 25.0), (None, 5.0), (20.0, 20.0)]
    floored = 0
    for i in range(10_000):
        size = 20_000.0 + 13.0 * (i % 211)
        up, down = caps[i % len(caps)]
        base = model.expected_transfer_ms(size, up, down)
        factor = reference_rng.lognormvariate(0.0, model.contention_sigma)
        want = base * max(factor, 0.5)
        assert model.sample_transfer_ms(size, rng, up, down) == want
        floored += factor < 0.5
    assert rng.getstate() == reference_rng.getstate()
    assert floored == 0  # sigma 0.10 never reaches the 0.5 floor...
    wild = BandwidthModel(contention_sigma=1.0)  # ...sigma 1.0 does
    for _ in range(1_000):
        base = wild.expected_transfer_ms(20_000.0)
        factor = reference_rng.lognormvariate(0.0, 1.0)
        assert wild.sample_transfer_ms(20_000.0, rng) == base * max(factor, 0.5)
        floored += factor < 0.5
    assert floored > 100 and rng.getstate() == reference_rng.getstate()


def test_sampled_transfer_validates_like_transfer_ms():
    model = BandwidthModel()
    with pytest.raises(ValueError, match="size must be >= 0"):
        model.sample_transfer_ms(-1.0, random.Random(1))
    with pytest.raises(ValueError, match="bandwidth must be positive"):
        model.sample_transfer_ms(1.0, random.Random(1), uplink_mbps=0.0)


def test_sampled_transfer_without_noise_is_deterministic():
    model = BandwidthModel(contention_sigma=0.0)
    rng = random.Random(2)
    assert model.sample_transfer_ms(0.02e6, rng, 20.0) == pytest.approx(8.0)


def test_model_validates_parameters():
    with pytest.raises(ValueError):
        BandwidthModel(default_uplink_mbps=0.0)
    with pytest.raises(ValueError):
        BandwidthModel(contention_sigma=-0.1)
