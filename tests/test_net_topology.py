"""Unit tests for NetworkTopology and Link."""

import random

import pytest

from repro.geo.point import GeoPoint
from repro.net.latency import (
    JitterModel,
    DistanceRttModel,
    HashedPairRttModel,
    MatrixRttModel,
    NetworkTier,
)
from repro.net.link import CONNECTION_SETUP_RTTS, Link, LinkState
from repro.net.topology import NetworkEndpoint, NetworkTopology


@pytest.fixture
def topology():
    topo = NetworkTopology(
        rtt_model=DistanceRttModel(jitter=JitterModel(sigma=0.0, spike_probability=0.0)),
        rng=random.Random(1),
    )
    topo.add_endpoint(NetworkEndpoint("user", GeoPoint(44.97, -93.25)))
    topo.add_endpoint(
        NetworkEndpoint("edge", GeoPoint(44.95, -93.20), uplink_mbps=40.0)
    )
    return topo


def test_registry_roundtrip(topology):
    assert topology.has_endpoint("user")
    assert topology.endpoint("user").endpoint_id == "user"
    assert sorted(topology.endpoint_ids()) == ["edge", "user"]
    assert len(topology) == 2


def test_unknown_endpoint_raises(topology):
    with pytest.raises(KeyError, match="nope"):
        topology.endpoint("nope")


def test_remove_endpoint(topology):
    topology.remove_endpoint("edge")
    assert not topology.has_endpoint("edge")
    topology.remove_endpoint("edge")  # idempotent


def test_add_endpoint_duplicate_requires_explicit_replace(topology):
    with pytest.raises(ValueError, match="already registered"):
        topology.add_endpoint(NetworkEndpoint("user", GeoPoint(10.0, 10.0)))


def test_add_endpoint_replace_is_explicit(topology):
    topology.add_endpoint(NetworkEndpoint("user", GeoPoint(10.0, 10.0)), replace=True)
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


def test_distance_km(topology):
    assert topology.distance_km("user", "edge") > 0


def test_endpoint_info_carries_access_extra():
    endpoint = NetworkEndpoint(
        "x", GeoPoint(0, 0), tier=NetworkTier.LAN, access_extra_ms=3.0
    )
    assert endpoint.info().access_extra_ms == 3.0
    assert endpoint.info().tier is NetworkTier.LAN


# ----------------------------------------------------------------------
# RTT memoization
# ----------------------------------------------------------------------
def test_expected_rtt_is_memoized(topology):
    first = topology.expected_rtt_ms("user", "edge")
    assert ("user", "edge") in topology._expected_cache
    assert topology.expected_rtt_ms("user", "edge") == first


def test_replace_endpoint_invalidates_its_pairs(topology):
    before = topology.expected_rtt_ms("user", "edge")
    topology.add_endpoint(
        NetworkEndpoint("edge", GeoPoint(45.5, -94.0)), replace=True
    )
    after = topology.expected_rtt_ms("user", "edge")
    assert after != before  # the node moved; a stale cache would hide it


def test_remove_endpoint_invalidates_its_pairs(topology):
    topology.expected_rtt_ms("user", "edge")
    topology.remove_endpoint("edge")
    assert ("user", "edge") not in topology._expected_cache
    # pairs not touching the removed endpoint survive
    topology.add_endpoint(NetworkEndpoint("other", GeoPoint(44.96, -93.22)))
    topology.expected_rtt_ms("user", "other")
    topology.remove_endpoint("other")
    assert ("user", "other") not in topology._expected_cache


def test_swapping_rtt_model_drops_cache(topology):
    topology.expected_rtt_ms("user", "edge")
    topology.rtt_model = DistanceRttModel(
        jitter=JitterModel(sigma=0.0, spike_probability=0.0)
    )
    assert topology._expected_cache == {}


def test_matrix_model_expected_rtt_never_cached():
    """MatrixRttModel.set_rtt can retune pairs mid-run, so its expected
    RTTs must be recomputed every call — a cache would pin old values."""
    model = MatrixRttModel(default_ms=30.0)
    topo = NetworkTopology(rtt_model=model, rng=random.Random(3))
    topo.add_endpoint(NetworkEndpoint("a", GeoPoint(44.97, -93.25)))
    topo.add_endpoint(NetworkEndpoint("b", GeoPoint(44.95, -93.20)))
    assert topo.expected_rtt_ms("a", "b") == pytest.approx(30.0)
    model.set_rtt("a", "b", 55.0)
    assert topo.expected_rtt_ms("a", "b") == pytest.approx(55.0)


def test_memoized_samples_match_unmemoized_stream():
    """rtt_ms through the cache fast path must be bit-identical to what
    the model would sample directly with the same RNG stream."""

    def build():
        topo = NetworkTopology(
            rtt_model=DistanceRttModel(jitter=JitterModel(sigma=0.2)),
            rng=random.Random(11),
        )
        topo.add_endpoint(NetworkEndpoint("user", GeoPoint(44.97, -93.25)))
        topo.add_endpoint(NetworkEndpoint("edge", GeoPoint(44.95, -93.20)))
        return topo

    cached = build()
    via_cache = [cached.rtt_ms("user", "edge") for _ in range(50)]

    uncached = build()
    model = uncached.rtt_model
    direct = [
        model.sample_rtt_ms(
            uncached.endpoint("user").info(),
            uncached.endpoint("edge").info(),
            uncached.rng,
        )
        for _ in range(50)
    ]
    assert via_cache == direct


def test_rtt_ms_follows_every_invalidation_path():
    """``rtt_ms`` reads the expected-RTT cache directly; after each way
    the cache can go stale it must still return what the installed model
    samples, uncached, from the same RNG state."""
    topo = NetworkTopology(
        rtt_model=DistanceRttModel(jitter=JitterModel(sigma=0.2)),
        rng=random.Random(11),
    )
    topo.add_endpoint(NetworkEndpoint("user", GeoPoint(44.97, -93.25)))
    topo.add_endpoint(NetworkEndpoint("edge", GeoPoint(44.95, -93.20)))

    def check() -> float:
        """One sample by the cached route against the model's own;
        returns the expected RTT now in force."""
        reference_rng = random.Random()
        reference_rng.setstate(topo.rng.getstate())
        want = topo.rtt_model.sample_rtt_ms(
            topo.endpoint("user").info(), topo.endpoint("edge").info(), reference_rng
        )
        assert topo.rtt_ms("user", "edge") == want
        assert topo.rng.getstate() == reference_rng.getstate()
        return topo.expected_rtt_ms("user", "edge")

    near = check()  # miss: fills the cache
    assert check() == near and ("user", "edge") in topo._expected_cache  # hit
    topo.remove_endpoint("edge")
    topo.add_endpoint(NetworkEndpoint("edge", GeoPoint(45.5, -94.0)))
    far = check()
    assert far > near  # a stale hit would still say `near`
    topo.add_endpoint(NetworkEndpoint("edge", GeoPoint(44.95, -93.20)), replace=True)
    assert check() == near
    topo.rtt_model = HashedPairRttModel(seed=3)
    hashed = check()
    assert hashed != near and check() == hashed
    topo.rtt_model = matrix = MatrixRttModel(default_ms=30.0)
    assert check() == 30.0
    matrix.set_rtt("user", "edge", 55.0)  # never cached: seen at once
    assert check() == 55.0 and topo._expected_cache == {}


def test_unknown_endpoint_raises_the_same_error_from_samples(topology):
    topology.rtt_ms("user", "edge")  # a warm cache must not answer for...
    topology.remove_endpoint("edge")  # ...an endpoint that has left
    for sample in (
        lambda: topology.rtt_ms("user", "edge"),
        lambda: topology.rtt_ms("edge", "user"),
        lambda: topology.one_way_ms("user", "edge"),
        lambda: topology.transfer_ms("user", "edge", 20_000.0),
        lambda: topology.transfer_ms("edge", "user", 20_000.0),
    ):
        with pytest.raises(KeyError) as caught:
            sample()
        assert caught.value.args == ("unknown endpoint: 'edge'",)
        assert caught.value.__suppress_context__  # `from None`, as endpoint()


# ----------------------------------------------------------------------
# Link
# ----------------------------------------------------------------------
def test_link_starts_establishing():
    link = Link("u", "e", rtt_ms=20.0)
    assert link.state is LinkState.ESTABLISHING
    assert not link.usable


def test_link_mark_up_and_down():
    link = Link("u", "e", rtt_ms=20.0)
    link.mark_up(now=100.0)
    assert link.usable
    assert link.established_at == 100.0
    link.mark_down()
    assert not link.usable
    assert link.state is LinkState.DOWN


def test_link_establish_cost_scales_with_rtt():
    link = Link("u", "e", rtt_ms=20.0)
    assert link.establish_ms() == pytest.approx(CONNECTION_SETUP_RTTS * 20.0)
