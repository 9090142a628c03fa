"""Unit and statistical tests for churn models, traces and injection."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.churn.injector import ChurnInjector
from repro.churn.models import PoissonArrivalModel, WeibullLifetimeModel
from repro.churn.trace import ChurnTrace, NodeEpisode, generate_trace
from repro.core.config import SystemConfig
from repro.core.system import EdgeSystem
from repro.geo.region import MSP_CENTER
from repro.net.topology import EndpointSpec
from repro.nodes.hardware import profile_by_name


# ----------------------------------------------------------------------
# Poisson arrivals
# ----------------------------------------------------------------------
def test_poisson_mean_matches_k():
    model = PoissonArrivalModel(k=4.0)
    rng = random.Random(1)
    counts = [model.sample_count(rng) for _ in range(20_000)]
    assert sum(counts) / len(counts) == pytest.approx(4.0, rel=0.03)


def test_poisson_variance_matches_k():
    model = PoissonArrivalModel(k=4.0)
    rng = random.Random(2)
    counts = [model.sample_count(rng) for _ in range(20_000)]
    mean = sum(counts) / len(counts)
    var = sum((c - mean) ** 2 for c in counts) / len(counts)
    assert var == pytest.approx(4.0, rel=0.08)


def test_epoch_arrivals_inside_epoch_and_sorted():
    model = PoissonArrivalModel(k=4.0, epoch_ms=30_000.0)
    rng = random.Random(3)
    for epoch_start in (0.0, 30_000.0, 60_000.0):
        times = model.sample_epoch_arrivals(rng, epoch_start)
        assert times == sorted(times)
        for t in times:
            assert epoch_start <= t < epoch_start + 30_000.0


def test_poisson_validation():
    with pytest.raises(ValueError):
        PoissonArrivalModel(k=0.0)
    with pytest.raises(ValueError):
        PoissonArrivalModel(epoch_ms=0.0)


# ----------------------------------------------------------------------
# Weibull lifetimes
# ----------------------------------------------------------------------
def test_weibull_mean_matches_target():
    model = WeibullLifetimeModel(mean_ms=50_000.0, shape=1.5)
    rng = random.Random(4)
    samples = [model.sample_lifetime_ms(rng) for _ in range(20_000)]
    assert sum(samples) / len(samples) == pytest.approx(50_000.0, rel=0.03)


def test_weibull_scale_derivation():
    model = WeibullLifetimeModel(mean_ms=50_000.0, shape=1.5)
    assert model.scale_ms == pytest.approx(
        50_000.0 / math.gamma(1.0 + 1.0 / 1.5)
    )


def test_weibull_floor_at_one_second():
    model = WeibullLifetimeModel(mean_ms=2_000.0, shape=0.5)
    rng = random.Random(5)
    assert all(model.sample_lifetime_ms(rng) >= 1_000.0 for _ in range(2_000))


def test_weibull_validation():
    with pytest.raises(ValueError):
        WeibullLifetimeModel(mean_ms=0.0)
    with pytest.raises(ValueError):
        WeibullLifetimeModel(shape=0.0)


# ----------------------------------------------------------------------
# Trace generation
# ----------------------------------------------------------------------
def test_episode_validation():
    with pytest.raises(ValueError):
        NodeEpisode("n", 100.0, 100.0)


def test_episode_alive_interval():
    episode = NodeEpisode("n", 10.0, 20.0)
    assert not episode.alive_at(9.9)
    assert episode.alive_at(10.0)
    assert not episode.alive_at(20.0)
    assert episode.lifetime_ms == 10.0


def test_generate_trace_target_total():
    rng = random.Random(6)
    trace = generate_trace(rng, horizon_ms=180_000.0, target_total_nodes=18)
    assert len(trace) == 18
    assert all(e.join_ms < 180_000.0 for e in trace.episodes)


def test_generate_trace_sorted_and_unique_ids():
    rng = random.Random(7)
    trace = generate_trace(rng, horizon_ms=180_000.0)
    joins = [e.join_ms for e in trace.episodes]
    assert joins == sorted(joins)
    ids = [e.node_id for e in trace.episodes]
    assert len(set(ids)) == len(ids)


def test_generate_trace_impossible_target_raises():
    rng = random.Random(8)
    with pytest.raises(ValueError):
        generate_trace(
            rng, horizon_ms=30_000.0, target_total_nodes=500, max_attempts=5
        )


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20)
def test_property_alive_count_nonnegative(seed):
    trace = generate_trace(random.Random(seed), horizon_ms=120_000.0)
    for ms in range(0, 120_000, 5_000):
        assert trace.alive_count_at(float(ms)) >= 0


def test_generation_is_seeded():
    a = generate_trace(random.Random(10), horizon_ms=120_000.0)
    b = generate_trace(random.Random(10), horizon_ms=120_000.0)
    assert [(e.join_ms, e.fail_ms) for e in a.episodes] == [
        (e.join_ms, e.fail_ms) for e in b.episodes
    ]


# ----------------------------------------------------------------------
# Injection
# ----------------------------------------------------------------------
def test_injector_replays_trace_population():
    system = EdgeSystem(SystemConfig(seed=12))
    trace = ChurnTrace(
        episodes=[
            NodeEpisode("vol-a", 1_000.0, 50_000.0),
            NodeEpisode("vol-b", 2_000.0, 10_000.0),
            NodeEpisode("vol-c", 12_000.0, 60_000.0),
        ],
        horizon_ms=60_000.0,
    )
    injector = ChurnInjector(
        system, [profile_by_name("t2.xlarge")], center=MSP_CENTER
    )
    injector.install(trace)
    system.run_for(5_000.0)
    assert set(system.alive_node_ids()) == {"vol-a", "vol-b"}
    system.run_for(6_000.0)  # t=11s: vol-b died
    assert set(system.alive_node_ids()) == {"vol-a"}
    system.run_for(2_000.0)  # t=13s: vol-c joined
    assert set(system.alive_node_ids()) == {"vol-a", "vol-c"}
    system.run_for(42_000.0)  # t=55s
    assert set(system.alive_node_ids()) == {"vol-c"}


def test_injector_rejects_id_collision():
    system = EdgeSystem(SystemConfig(seed=12))
    system.add_node("vol-a", profile_by_name("V1"), EndpointSpec(MSP_CENTER))
    injector = ChurnInjector(system, [profile_by_name("V1")], center=MSP_CENTER)
    trace = ChurnTrace([NodeEpisode("vol-a", 1_000.0, 5_000.0)], 10_000.0)
    with pytest.raises(ValueError, match="collides"):
        injector.install(trace)


def test_injector_requires_profiles():
    system = EdgeSystem(SystemConfig(seed=12))
    with pytest.raises(ValueError):
        ChurnInjector(system, [], center=MSP_CENTER)


def test_injector_matches_profiles_deterministically():
    def run():
        system = EdgeSystem(SystemConfig(seed=13))
        injector = ChurnInjector(
            system,
            [profile_by_name("t2.medium"), profile_by_name("t2.xlarge")],
            center=MSP_CENTER,
        )
        trace = ChurnTrace(
            [NodeEpisode(f"vol-{i}", 100.0 * i + 1, 50_000.0) for i in range(4)],
            60_000.0,
        )
        injector.install(trace)
        system.run_for(1_000.0)
        return {n: node.profile.name for n, node in system.nodes.items()}

    assert run() == run()


def test_injector_custom_placer():
    system = EdgeSystem(SystemConfig(seed=14))
    fixed = MSP_CENTER
    injector = ChurnInjector(
        system,
        [profile_by_name("V1")],
        center=MSP_CENTER,
        placer=lambda episode: fixed,
    )
    trace = ChurnTrace([NodeEpisode("vol-x", 100.0, 5_000.0)], 10_000.0)
    injector.install(trace)
    system.run_for(500.0)
    assert system.topology.endpoint("vol-x").point == fixed


# ----------------------------------------------------------------------
# Crash-and-return episodes (restart under the same node id)
# ----------------------------------------------------------------------
def test_restart_episode_validation():
    with pytest.raises(ValueError, match="restart"):
        NodeEpisode("vol-a", 1_000.0, 5_000.0, restart_ms=4_000.0)


def test_restart_episode_alive_interval():
    episode = NodeEpisode("vol-a", 1_000.0, 5_000.0, restart_ms=9_000.0)
    assert not episode.alive_at(500.0)
    assert episode.alive_at(1_000.0)
    assert not episode.alive_at(5_000.0)  # crashed
    assert not episode.alive_at(8_999.0)  # still down
    assert episode.alive_at(9_000.0)  # back under the same id
    assert episode.alive_at(1e9)  # stays up to the horizon


def test_injector_restart_reuses_node_id_with_fresh_state():
    """Node-id reuse regression: the restarted volunteer is a fresh
    process — seqNum back at 0, empty attachment table, re-primed
    what-if cache — not a resurrected copy of the pre-crash state."""
    from repro.obs.tracer import Tracer

    tracer = Tracer()
    system = EdgeSystem(SystemConfig(seed=12), trace=tracer)
    trace = ChurnTrace(
        episodes=[
            NodeEpisode("vol-a", 1_000.0, 5_000.0, restart_ms=9_000.0),
        ],
        horizon_ms=20_000.0,
    )
    injector = ChurnInjector(
        system, [profile_by_name("t2.xlarge")], center=MSP_CENTER
    )
    injector.install(trace)

    system.run_for(2_000.0)  # t=2s: first incarnation is up
    first = system.nodes["vol-a"]
    # poison the pre-crash state so staleness would be visible
    first.seq_num = 7
    first.attached = {"ghost-user": 20.0}
    first.what_if_ms = 12_345.0

    system.run_for(4_000.0)  # t=6s: crashed
    assert not system.nodes["vol-a"].alive

    system.run_for(4_000.0)  # t=10s: restarted under the same id
    second = system.nodes["vol-a"]
    assert second is not first  # a genuinely fresh process
    assert second.alive
    assert second.seq_num == 0
    assert second.attached == {}
    assert second.what_if_ms != 12_345.0  # cache re-primed, not inherited

    # the restart re-primed the what-if cache: one "prime" per incarnation
    primes = [
        e
        for e in tracer.events()
        if e.type == "cache_miss"
        and e.node_id == "vol-a"
        and e.reason == "prime"
    ]
    assert len(primes) == 2
    restarts = [e for e in tracer.events() if e.type == "node_restart"]
    assert [e.node_id for e in restarts] == ["vol-a"]


def test_injector_restart_skipped_if_node_never_failed():
    """A restart scheduled for a node that is somehow still alive is a
    no-op, not an error."""
    system = EdgeSystem(SystemConfig(seed=12))
    trace = ChurnTrace(
        episodes=[
            NodeEpisode("vol-a", 1_000.0, 50_000.0, restart_ms=60_000.0),
        ],
        horizon_ms=70_000.0,
    )
    injector = ChurnInjector(
        system, [profile_by_name("t2.xlarge")], center=MSP_CENTER
    )
    injector.install(trace)
    system.run_for(52_000.0)  # past fail_ms: the node crashed
    assert not system.nodes["vol-a"].alive
    # someone else already brought it back before the scheduled restart
    system.restart_node("vol-a")
    revived = system.nodes["vol-a"]
    system.run_for(10_000.0)  # past restart_ms: the no-op restart fires
    assert system.nodes["vol-a"] is revived  # not restarted a second time
