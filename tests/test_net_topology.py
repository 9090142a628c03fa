"""Unit tests for NetworkTopology."""

import random

import pytest

from repro.geo.point import GeoPoint
from repro.net.latency import DistanceRttModel, JitterModel, NetworkTier
from repro.net.topology import EndpointSpec, NetworkTopology


@pytest.fixture
def topology():
    topo = NetworkTopology(
        rtt_model=DistanceRttModel(jitter=JitterModel(sigma=0.0, spike_probability=0.0)),
        rng=random.Random(1),
    )
    topo.add_endpoint("user", EndpointSpec(GeoPoint(44.97, -93.25)))
    topo.add_endpoint("edge", EndpointSpec(GeoPoint(44.95, -93.20), uplink_mbps=40.0))
    return topo


def test_registry_roundtrip(topology):
    assert topology.has_endpoint("user")
    assert topology.endpoint("user") == EndpointSpec(GeoPoint(44.97, -93.25))
    assert topology.endpoint("edge").uplink_mbps == 40.0


def test_unknown_endpoint_raises(topology):
    with pytest.raises(KeyError, match="nope"):
        topology.endpoint("nope")


def test_add_endpoint_duplicate_requires_explicit_replace(topology):
    with pytest.raises(ValueError, match="already registered"):
        topology.add_endpoint("user", EndpointSpec(GeoPoint(10.0, 10.0)))


def test_add_endpoint_replace_is_explicit(topology):
    topology.add_endpoint("user", EndpointSpec(GeoPoint(10.0, 10.0)), replace=True)
    assert topology.endpoint("user").point.lat == 10.0


def test_rtt_symmetric_in_expectation(topology):
    assert topology.expected_rtt_ms("user", "edge") == pytest.approx(
        topology.expected_rtt_ms("edge", "user")
    )


def test_one_way_is_half_rtt_without_jitter(topology):
    assert topology.one_way_ms("user", "edge") == pytest.approx(
        topology.expected_rtt_ms("user", "edge") / 2.0
    )


def test_transfer_uses_sender_uplink(topology):
    topology.bandwidth_model.contention_sigma = 0.0
    # user has default uplink 20 Mbps -> 8 ms for 0.02 MB
    assert topology.expected_transfer_ms("user", "edge", 0.02e6) == pytest.approx(8.0)


def test_endpoint_info_carries_access_extra(topology):
    """The registered spec is what the RTT model reads: its tier and
    last-mile overhead reach the expected RTT."""
    spec = EndpointSpec(GeoPoint(44.95, -93.20), tier=NetworkTier.LAN, access_extra_ms=3.0)
    topology.add_endpoint("x", spec)
    assert topology.endpoint("x") is spec
    model = DistanceRttModel()
    assert topology.expected_rtt_ms("user", "x") == model.expected_rtt_ms(
        topology.endpoint("user"), spec
    )


# ----------------------------------------------------------------------
# RTT memoization
# ----------------------------------------------------------------------
def test_expected_rtt_is_memoized(topology):
    first = topology.expected_rtt_ms("user", "edge")
    assert ("user", "edge") in topology._expected_cache
    assert topology.expected_rtt_ms("user", "edge") == first


def test_replace_endpoint_invalidates_its_pairs(topology):
    before = topology.expected_rtt_ms("user", "edge")
    topology.add_endpoint("edge", EndpointSpec(GeoPoint(45.5, -94.0)), replace=True)
    assert ("user", "edge") not in topology._expected_cache
    after = topology.expected_rtt_ms("user", "edge")
    assert after != before  # the node moved; a stale cache would hide it


def test_replace_endpoint_keeps_other_pairs(topology):
    """Replacing an endpoint drops only the pairs that touch it."""
    topology.expected_rtt_ms("user", "edge")
    topology.add_endpoint("other", EndpointSpec(GeoPoint(44.96, -93.22)))
    other = topology.expected_rtt_ms("user", "other")
    topology.add_endpoint("edge", EndpointSpec(GeoPoint(45.5, -94.0)), replace=True)
    assert ("user", "edge") not in topology._expected_cache
    assert topology._expected_cache[("user", "other")] == other


def test_memoized_samples_match_unmemoized_stream():
    """rtt_ms through the cache fast path must be bit-identical to what
    the model would sample directly with the same RNG stream."""

    def build():
        topo = NetworkTopology(
            rtt_model=DistanceRttModel(jitter=JitterModel(sigma=0.2)),
            rng=random.Random(11),
        )
        topo.add_endpoint("user", EndpointSpec(GeoPoint(44.97, -93.25)))
        topo.add_endpoint("edge", EndpointSpec(GeoPoint(44.95, -93.20)))
        return topo

    cached = build()
    via_cache = [cached.rtt_ms("user", "edge") for _ in range(50)]

    uncached = build()
    model = DistanceRttModel(jitter=JitterModel(sigma=0.2))
    direct = [
        model.sample_rtt_ms(
            uncached.endpoint("user"), uncached.endpoint("edge"), uncached.rng
        )
        for _ in range(50)
    ]
    assert via_cache == direct


def test_rtt_ms_follows_every_invalidation_path():
    """``rtt_ms`` reads the expected-RTT cache directly; after each way
    the cache can go stale it must still return what the installed model
    samples, uncached, from the same RNG state."""
    model = DistanceRttModel(jitter=JitterModel(sigma=0.2))
    topo = NetworkTopology(rtt_model=model, rng=random.Random(11))
    topo.add_endpoint("user", EndpointSpec(GeoPoint(44.97, -93.25)))
    topo.add_endpoint("edge", EndpointSpec(GeoPoint(44.95, -93.20)))

    def check() -> float:
        """One sample by the cached route against the model's own;
        returns the expected RTT now in force."""
        reference_rng = random.Random()
        reference_rng.setstate(topo.rng.getstate())
        want = model.sample_rtt_ms(
            topo.endpoint("user"), topo.endpoint("edge"), reference_rng
        )
        assert topo.rtt_ms("user", "edge") == want
        assert topo.rng.getstate() == reference_rng.getstate()
        return topo.expected_rtt_ms("user", "edge")

    near = check()  # miss: fills the cache
    assert check() == near and ("user", "edge") in topo._expected_cache  # hit
    topo.add_endpoint("edge", EndpointSpec(GeoPoint(45.5, -94.0)), replace=True)
    far = check()
    assert far > near  # a stale hit would still say `near`
    assert check() == far  # hit again
    topo.add_endpoint("user", EndpointSpec(GeoPoint(45.5, -94.01)), replace=True)
    assert check() < far  # either end may move
    topo.add_endpoint("edge", EndpointSpec(GeoPoint(44.95, -93.20)), replace=True)
    topo.add_endpoint("user", EndpointSpec(GeoPoint(44.97, -93.25)), replace=True)
    assert check() == near


def test_unknown_endpoint_raises_the_same_error_from_samples(topology):
    topology.rtt_ms("user", "edge")  # a warm cache must not answer for...
    for sample in (  # ...an endpoint that was never registered
        lambda: topology.rtt_ms("user", "nope"),
        lambda: topology.rtt_ms("nope", "user"),
        lambda: topology.one_way_ms("user", "nope"),
        lambda: topology.transfer_ms("user", "nope", 20_000.0),
        lambda: topology.transfer_ms("nope", "user", 20_000.0),
    ):
        with pytest.raises(KeyError) as caught:
            sample()
        assert caught.value.args == ("unknown endpoint: 'nope'",)
        assert caught.value.__suppress_context__  # `from None`, as endpoint()

