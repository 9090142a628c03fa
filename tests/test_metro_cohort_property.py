"""Property: cohort batching is a pure optimization.

For any (seed, population shape, failure schedule) the cohort-batched
frame loop must emit exactly the same trace-event multiset as
:class:`PerFrameKernel`, which runs one event per frame on the per-event
``Simulator`` — same joins, same frames at the same times with the same
latencies, same failovers. This is the load-bearing guarantee that lets
the metro kernel advance arrays without changing what the simulation
*says happened*.
"""

from collections import Counter

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import SystemConfig
from repro.metro.kernel import MetroKernel
from repro.metro.reference import PerFrameKernel
from repro.metro.spec import MetroSpec, build_population
from repro.obs.tracer import Tracer


def run_mode(*, batched, seed, nodes, users, fail_first_at_ms, sim_seconds):
    config = SystemConfig(seed=seed, min_dwell_ms=1_000.0)
    spec = MetroSpec(nodes=nodes, users=users, region_km=15.0, fps=10.0)
    population = build_population(spec, config.seed)
    tracer = Tracer(enabled=True, capacity=1 << 20)
    kernel_cls = MetroKernel if batched else PerFrameKernel
    kernel = kernel_cls(config, spec, population, tracer=tracer)
    if fail_first_at_ms is not None:
        kernel.schedule_node_fail(int(kernel.n_gid[0]), at_ms=fail_first_at_ms)
    report = kernel.run(sim_seconds)
    multiset = Counter(
        tuple(sorted(e.to_dict().items())) for e in tracer.events()
    )
    return report, multiset


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    nodes=st.integers(min_value=20, max_value=120),
    users=st.integers(min_value=30, max_value=400),
    fail_first_at_ms=st.one_of(
        st.none(), st.floats(min_value=500.0, max_value=3_000.0)
    ),
)
def test_batched_equals_per_client_event_multiset(
    seed, nodes, users, fail_first_at_ms
):
    sim_seconds = 4.0
    batched_report, batched_events = run_mode(
        batched=True, seed=seed, nodes=nodes, users=users,
        fail_first_at_ms=fail_first_at_ms, sim_seconds=sim_seconds,
    )
    per_client_report, per_client_events = run_mode(
        batched=False, seed=seed, nodes=nodes, users=users,
        fail_first_at_ms=fail_first_at_ms, sim_seconds=sim_seconds,
    )
    assert batched_events == per_client_events
    assert batched_report.frames_done == per_client_report.frames_done
    assert batched_report.frames_lost == per_client_report.frames_lost
    assert batched_report.switches == per_client_report.switches
    assert (
        batched_report.covered_failovers == per_client_report.covered_failovers
    )
    assert (
        batched_report.uncovered_failures
        == per_client_report.uncovered_failures
    )
