"""Unit and property tests for the frame-processing queue and the
analytic sojourn model."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.nodes.hardware import HardwareProfile, profile_by_name
from repro.nodes.processing import (
    CompletedFrame,
    FrameProcessor,
    analytic_sojourn_ms,
    offered_load,
)


@pytest.fixture
def xlarge():
    return profile_by_name("t2.xlarge")  # 30 ms, parallelism 1


def make_processor(base_ms=30.0, parallelism=1, **kwargs):
    profile = HardwareProfile("test", "test cpu", 4, base_ms, parallelism=parallelism)
    return FrameProcessor(profile, **kwargs)


# ----------------------------------------------------------------------
# FCFS queue semantics
# ----------------------------------------------------------------------
def test_idle_frame_takes_service_time():
    proc = make_processor(base_ms=30.0)
    frame = proc.submit(100.0)
    assert frame.sojourn_ms == pytest.approx(30.0)
    assert frame.wait_ms == 0.0


def test_back_to_back_frames_queue():
    proc = make_processor(base_ms=30.0)
    first = proc.submit(0.0)
    second = proc.submit(0.0)
    assert first.completion_ms == pytest.approx(30.0)
    assert second.start_ms == pytest.approx(30.0)
    assert second.sojourn_ms == pytest.approx(60.0)


def test_parallel_servers_serve_concurrently():
    proc = make_processor(base_ms=30.0, parallelism=2)
    a = proc.submit(0.0)
    b = proc.submit(0.0)
    c = proc.submit(0.0)
    assert a.completion_ms == pytest.approx(30.0)
    assert b.completion_ms == pytest.approx(30.0)
    assert c.start_ms == pytest.approx(30.0)


def test_gap_lets_queue_drain():
    proc = make_processor(base_ms=30.0)
    proc.submit(0.0)
    later = proc.submit(100.0)
    assert later.wait_ms == 0.0


def test_queue_depth_reflects_backlog():
    proc = make_processor(base_ms=30.0)
    assert proc.queue_depth(0.0) == 0
    for _ in range(4):
        proc.submit(0.0)
    assert proc.queue_depth(0.0) == 4


def test_bounded_queue_sheds_load():
    proc = make_processor(base_ms=30.0, max_queue_depth=3)
    accepted = [proc.submit(0.0) for _ in range(6)]
    dropped = [f for f in accepted if f is None]
    assert len(dropped) == 3


def test_slowdown_inflates_service():
    proc = make_processor(base_ms=30.0)
    proc.set_slowdown(2.0)
    assert proc.submit(0.0).sojourn_ms == pytest.approx(60.0)


def test_slowdown_rejects_below_one():
    with pytest.raises(ValueError):
        make_processor().set_slowdown(0.5)


def test_counters_track_frames():
    proc = make_processor()
    proc.submit(0.0)
    proc.submit(0.0, synthetic=True)
    assert proc.frames_processed == 2
    assert proc.synthetic_frames_processed == 1
    assert proc.total_busy_ms == pytest.approx(60.0)


def test_recent_mean_sojourn_excludes_synthetic():
    proc = make_processor(base_ms=30.0)
    proc.submit(0.0, synthetic=True)
    assert proc.recent_mean_sojourn_ms() is None
    proc.submit(100.0)
    assert proc.recent_mean_sojourn_ms() == pytest.approx(30.0)


def test_recent_mean_sojourn_time_window():
    proc = make_processor(base_ms=30.0)
    proc.submit(0.0)
    # completion at 30; far in the future the window is empty
    assert proc.recent_mean_sojourn_ms(now=10_000.0) is None
    assert proc.recent_mean_sojourn_ms(now=100.0) == pytest.approx(30.0)


def test_arrival_rate_counts_recent_real_frames():
    proc = make_processor()
    for t in range(0, 2000, 100):  # 10 fps over the 2 s window
        proc.submit(float(t))
    assert proc.arrival_rate_fps(2000.0) == pytest.approx(10.0)


def test_arrival_rate_ignores_synthetic_and_old():
    proc = make_processor()
    proc.submit(0.0, synthetic=True)
    proc.submit(0.0)
    assert proc.arrival_rate_fps(10_000.0) == 0.0


def test_offered_utilization_matches_offered_load():
    proc = make_processor(base_ms=50.0, parallelism=2)
    for t in range(0, 2000, 50):  # 20 fps
        proc.submit(float(t))
    # rho = 20 fps * 50 ms / (1000 * 2) = 0.5
    assert proc.offered_utilization(2000.0) == pytest.approx(0.5, rel=0.1)


@given(st.lists(st.floats(min_value=0, max_value=10_000), min_size=1, max_size=100))
@settings(max_examples=50)
def test_property_sojourn_at_least_service(arrivals):
    proc = make_processor(base_ms=25.0, max_queue_depth=1_000)
    for t in sorted(arrivals):
        frame = proc.submit(t)
        assert frame is not None
        assert frame.sojourn_ms >= 25.0 - 1e-9
        assert frame.start_ms >= t


@given(st.lists(st.floats(min_value=0, max_value=5_000), min_size=2, max_size=60))
@settings(max_examples=50)
def test_property_completions_nondecreasing_per_server(arrivals):
    """With one server, completions must be strictly ordered FCFS."""
    proc = make_processor(base_ms=10.0, max_queue_depth=1_000)
    completions = [proc.submit(t).completion_ms for t in sorted(arrivals)]
    assert completions == sorted(completions)


# ----------------------------------------------------------------------
# One-pass submit == the two-scan formulation it replaced
# ----------------------------------------------------------------------
def submit_two_scan(proc, arrival_ms, *, synthetic=False, service_ms=None):
    """``FrameProcessor.submit`` as first written — admission through
    ``queue_depth()``, then ``min()`` over the servers — kept here as the
    reference the one-pass version must equal, state for state."""
    if proc.queue_depth(arrival_ms) >= proc.max_queue_depth:
        return None
    if not synthetic:
        proc._arrivals.append(arrival_ms)
    if service_ms is not None:
        if service_ms <= 0:
            raise ValueError(f"service_ms must be positive: {service_ms}")
        service = service_ms * proc.slowdown_factor
    else:
        service = proc.effective_service_ms
    index = min(range(len(proc._free_at)), key=lambda i: proc._free_at[i])
    start = max(arrival_ms, proc._free_at[index])
    completion = start + service
    proc._free_at[index] = completion
    proc.frames_processed += 1
    if synthetic:
        proc.synthetic_frames_processed += 1
    proc.total_busy_ms += service
    frame = CompletedFrame(arrival_ms, start, completion, service, synthetic)
    if not synthetic:
        proc._last_sojourns.append((completion, frame.sojourn_ms))
        if len(proc._last_sojourns) > proc._sojourn_window:
            del proc._last_sojourns[: -proc._sojourn_window]
    return frame


def queue_state(proc):
    return (
        proc._free_at,
        proc._arrivals,
        proc._last_sojourns,
        proc.frames_processed,
        proc.synthetic_frames_processed,
        proc.total_busy_ms,
    )


#: One submission: (step to the next arrival, synthetic?, service_ms
#: override, slowdown set just before). Steps of 0 make arrivals tie with
#: each other and with ``_free_at`` entries (whole-millisecond services
#: keep those ties exact); negative steps are the probe that races a
#: frame by one timestamp.
_SUBMISSIONS = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 0.0, 1.0, 7.5, 24.0, 30.0, 33.3, -0.5, -24.0]),
        st.booleans(),
        st.sampled_from([None, None, None, 12.0, 45.5]),
        st.sampled_from([None, None, None, 1.0, 1.7, 2.0]),
    ),
    min_size=1,
    max_size=80,
)


@given(
    parallelism=st.integers(min_value=1, max_value=4),
    max_queue_depth=st.integers(min_value=1, max_value=6),
    base_ms=st.sampled_from([24.0, 30.0, 31.7]),
    submissions=_SUBMISSIONS,
)
@settings(max_examples=200, deadline=None)
def test_property_one_pass_submit_equals_two_scan(
    parallelism, max_queue_depth, base_ms, submissions
):
    one_pass, two_scan = (
        make_processor(
            base_ms, parallelism, max_queue_depth=max_queue_depth, _sojourn_window=4
        )
        for _ in range(2)
    )
    now = 100.0
    for step, synthetic, service_ms, slowdown in submissions:
        now += step
        if slowdown is not None:
            one_pass.set_slowdown(slowdown)
            two_scan.set_slowdown(slowdown)
        got = one_pass.submit(now, synthetic=synthetic, service_ms=service_ms)
        want = submit_two_scan(
            two_scan, now, synthetic=synthetic, service_ms=service_ms
        )
        assert got == want  # the drop decision, or the whole record
        assert queue_state(one_pass) == queue_state(two_scan)
        assert one_pass.queue_depth(now) == two_scan.queue_depth(now)


def test_one_pass_submit_on_ties_and_a_full_queue():
    """The two cases the property must not miss by chance: equal
    ``_free_at`` entries go to the first server, a full queue drops."""
    one_pass, two_scan = (
        make_processor(30.0, 3, max_queue_depth=4) for _ in range(2)
    )
    outcomes = []
    for _ in range(8):
        got = one_pass.submit(0.0)
        assert got == submit_two_scan(two_scan, 0.0)
        assert one_pass._free_at == two_scan._free_at
        outcomes.append(got is not None)
    # Three idle servers tie -> 0, 1, 2; all free at 30 tie again -> 0;
    # then the backlog is 120 ms = 4 services deep and the queue is full.
    assert outcomes == [True] * 4 + [False] * 4
    assert one_pass._free_at == [60.0, 30.0, 30.0]


# ----------------------------------------------------------------------
# Analytic model
# ----------------------------------------------------------------------
def test_analytic_idle_equals_service(xlarge):
    assert analytic_sojourn_ms(xlarge, 0.0) == xlarge.base_frame_ms


def test_analytic_monotone_in_load(xlarge):
    values = [analytic_sojourn_ms(xlarge, fps) for fps in (5, 15, 25, 31, 40, 80)]
    assert values == sorted(values)


def test_analytic_overload_keeps_gradient(xlarge):
    just_over = analytic_sojourn_ms(xlarge, xlarge.capacity_fps * 1.1)
    far_over = analytic_sojourn_ms(xlarge, xlarge.capacity_fps * 3.0)
    assert far_over > just_over * 1.5


def test_analytic_slowdown_scales(xlarge):
    assert analytic_sojourn_ms(xlarge, 10.0, slowdown_factor=2.0) > analytic_sojourn_ms(
        xlarge, 10.0
    )


def test_analytic_matches_simulated_periodic_arrivals(xlarge):
    """Calibration: with arrival_cv2=0.25 the model stays within ~35% of
    the simulated queue for jittered periodic arrivals at rho=0.8."""
    rng = random.Random(3)
    proc = FrameProcessor(xlarge, max_queue_depth=10_000)
    arrivals = []
    for user in range(2):  # 2 users x ~13.3 fps -> rho ~ 0.8
        t = rng.random() * 75.0
        while t < 60_000:
            arrivals.append(t + rng.gauss(0, 3))
            t += 75.0
    sojourns = [proc.submit(t).sojourn_ms for t in sorted(a for a in arrivals if a >= 0)]
    steady = sojourns[len(sojourns) // 2 :]
    simulated = sum(steady) / len(steady)
    predicted = analytic_sojourn_ms(xlarge, 1000.0 / 75.0 * 2)
    assert predicted == pytest.approx(simulated, rel=0.35)


def test_offered_load_formula():
    assert offered_load(20.0, 30.0, 1) == pytest.approx(0.6)
    assert offered_load(20.0, 30.0, 2) == pytest.approx(0.3)


def test_offered_load_validates():
    with pytest.raises(ValueError):
        offered_load(10.0, 30.0, 0)
    with pytest.raises(ValueError):
        offered_load(-1.0, 30.0, 1)
