"""Unit tests for the simulator kernel."""

import gc
import signal
import weakref
from contextlib import contextmanager

import pytest

from repro.sim.events import Event
from repro.sim.kernel import Simulator


def test_schedule_and_run_until_executes_in_order(sim):
    log = []
    sim.schedule(10.0, lambda: log.append("b"))
    sim.schedule(5.0, lambda: log.append("a"))
    sim.run_until(20.0)
    assert log == ["a", "b"]
    assert sim.now == 20.0


def test_run_until_includes_boundary_events(sim):
    log = []
    sim.schedule_at(10.0, lambda: log.append("edge"))
    sim.run_until(10.0)
    assert log == ["edge"]


def test_run_until_leaves_future_events_pending(sim):
    log = []
    sim.schedule(50.0, lambda: log.append("later"))
    sim.run_until(10.0)
    assert log == []
    sim.run_until(60.0)
    assert log == ["later"]


def test_clock_advances_to_event_time_during_dispatch(sim):
    seen = []
    sim.schedule(7.5, lambda: seen.append(sim.now))
    sim.run_until(100.0)
    assert seen == [7.5]


def test_negative_delay_clamped_to_now(sim):
    sim.schedule(3.0, lambda: None)
    sim.run_until(3.0)
    log = []
    sim.schedule(-5.0, lambda: log.append(sim.now))
    sim.run_until(3.0)
    assert log == [3.0]


def test_schedule_at_past_raises(sim):
    sim.schedule(5.0, lambda: None)
    sim.run_until(5.0)
    with pytest.raises(ValueError, match="past"):
        sim.schedule_at(4.0, lambda: None)


def test_events_scheduled_during_dispatch_run_same_pass(sim):
    log = []

    def outer():
        log.append("outer")
        sim.schedule(1.0, lambda: log.append("inner"))

    sim.schedule(1.0, outer)
    sim.run_until(10.0)
    assert log == ["outer", "inner"]


def test_step_executes_single_event(sim):
    log = []
    sim.schedule(1.0, lambda: log.append(1))
    sim.schedule(2.0, lambda: log.append(2))
    assert sim.step()
    assert log == [1]
    assert sim.step()
    assert log == [1, 2]
    assert not sim.step()


def test_run_drains_queue(sim):
    log = []
    for i in range(5):
        sim.schedule(float(i), lambda i=i: log.append(i))
    sim.run()
    assert log == [0, 1, 2, 3, 4]


def test_run_respects_max_events(sim):
    log = []
    for i in range(5):
        sim.schedule(float(i), lambda i=i: log.append(i))
    sim.run(max_events=2)
    assert log == [0, 1]


def test_stop_halts_run_until(sim):
    log = []
    sim.schedule(1.0, lambda: (log.append("first"), sim.stop()))
    sim.schedule(2.0, lambda: log.append("second"))
    sim.run_until(10.0)
    assert log == ["first"]
    assert sim.now == 1.0


def test_exceptions_propagate_without_handler(sim):
    def boom():
        raise RuntimeError("kaboom")

    sim.schedule(1.0, boom)
    with pytest.raises(RuntimeError, match="kaboom"):
        sim.run_until(5.0)


def test_error_handler_swallows_and_continues():
    captured = []

    def handler(exc: BaseException, event: Event) -> None:
        captured.append(str(exc))

    sim = Simulator(error_handler=handler)
    sim.schedule(1.0, lambda: (_ for _ in ()).throw(RuntimeError("bad node")))
    done = []
    sim.schedule(2.0, lambda: done.append(True))
    sim.run_until(5.0)
    assert captured == ["bad node"]
    assert done == [True]


def test_events_processed_counter(sim):
    for i in range(3):
        sim.schedule(float(i), lambda: None)
    sim.run_until(10.0)
    assert sim.events_processed == 3


# ----------------------------------------------------------------------
# Periodic timers
# ----------------------------------------------------------------------
def test_every_fires_at_period(sim):
    ticks = []
    sim.every(10.0, lambda: ticks.append(sim.now))
    sim.run_until(35.0)
    assert ticks == [10.0, 20.0, 30.0]


def test_every_with_start_after(sim):
    ticks = []
    sim.every(10.0, lambda: ticks.append(sim.now), start_after=0.0)
    sim.run_until(25.0)
    assert ticks == [0.0, 10.0, 20.0]


def test_every_cancel_stops_future_firings(sim):
    ticks = []
    handle = sim.every(10.0, lambda: ticks.append(sim.now))
    sim.run_until(15.0)
    handle.cancel()
    sim.run_until(100.0)
    assert ticks == [10.0]
    assert handle.cancelled


def test_every_cancel_from_inside_callback(sim):
    ticks = []
    handle = sim.every(5.0, lambda: (ticks.append(sim.now), handle.cancel()))
    sim.run_until(50.0)
    assert ticks == [5.0]


def test_every_with_jitter_uses_callback(sim):
    ticks = []
    sim.every(10.0, lambda: ticks.append(sim.now), jitter=lambda: 1.0)
    sim.run_until(35.0)
    assert ticks == [10.0, 21.0, 32.0]


def test_every_rejects_nonpositive_period(sim):
    with pytest.raises(ValueError):
        sim.every(0.0, lambda: None)


def test_every_negative_jitter_never_goes_nonpositive(sim):
    ticks = []
    sim.every(10.0, lambda: ticks.append(sim.now), jitter=lambda: -20.0)
    sim.run_until(30.0)
    # delay would be -10 -> falls back to the nominal period
    assert ticks == [10.0, 20.0, 30.0]


# ----------------------------------------------------------------------
# Non-finite times: a NaN compares false both ways, so it used to slip
# past every guard (and an infinite time moved the clock to infinity).
# Each is refused at the call that supplies it.
# ----------------------------------------------------------------------
NAN = float("nan")
INF = float("inf")


@contextmanager
def deadline(seconds=5.0):
    """Fail, rather than hang, if the body runs longer than ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("start", [NAN, INF, -INF])
def test_non_finite_start_is_refused(start):
    with pytest.raises(ValueError, match="finite"):
        Simulator(start=start)


@pytest.mark.parametrize("period", [NAN, INF])
def test_non_finite_period_is_refused(sim, period):
    ticks = []
    with deadline():
        with pytest.raises(ValueError, match="period"):
            sim.every(period, lambda: ticks.append(sim.now))
        sim.run_until(10.0)
    assert ticks == [] and sim.now == 10.0


@pytest.mark.parametrize("draw", [NAN, INF, -INF])
def test_non_finite_jitter_draw_is_refused(sim, draw):
    ticks = []
    sim.every(2.0, lambda: ticks.append(sim.now), jitter=lambda: draw)
    with deadline():
        with pytest.raises(ValueError, match="jitter"):
            sim.run_until(10.0)
    assert ticks == [2.0]


@pytest.mark.parametrize("start_after", [NAN, INF])
def test_non_finite_start_after_is_refused(sim, start_after):
    with pytest.raises(ValueError, match="finite"):
        sim.every(2.0, lambda: None, start_after=start_after)


@pytest.mark.parametrize("delay", [NAN, INF, -INF])
def test_non_finite_delay_is_refused(sim, delay):
    seen = []
    for t in (1.0, 5.0, 9.0):
        sim.schedule_at(t, lambda: seen.append(sim.now))
    with pytest.raises(ValueError, match="finite"):
        sim.schedule(delay, lambda: seen.append(("bad", sim.now)))
    sim.run()
    assert seen == [1.0, 5.0, 9.0] and sim.now == 9.0


@pytest.mark.parametrize("when", [NAN, INF])
def test_non_finite_time_is_refused(sim, when):
    with pytest.raises(ValueError, match="finite"):
        sim.schedule_at(when, lambda: None)
    sim.run()
    assert sim.events_processed == 0 and sim.now == 0.0


@pytest.mark.parametrize("until", [NAN, INF])
def test_non_finite_run_until_is_refused(sim, until):
    seen = []
    sim.schedule(5.0, lambda: seen.append(sim.now))
    with deadline():
        with pytest.raises(ValueError, match="finite"):
            sim.run_until(until)
    assert seen == [] and sim.now == 0.0


def test_close_drops_pending_events_and_timers_unfired(sim):
    fired = []
    sim.schedule(3.0, lambda: fired.append("early"))
    sim.run_until(5.0)
    one_shot = sim.schedule(10.0, lambda: fired.append("one-shot"))
    timer = sim.every(2.0, lambda: fired.append("tick"), start_after=10.0)
    jittered = sim.every(2.0, lambda: fired.append("jitter"), jitter=lambda: 0.5)
    processed = sim.events_processed
    sim.close()
    assert one_shot.cancelled and timer.cancelled and jittered.cancelled
    assert sim.events_processed == processed and sim.now == 5.0
    sim.run_until(100.0)
    assert fired == ["early"]
    assert sim.events_processed == processed and not sim.step()
    sim.close()  # again: nothing left to drop
    assert sim.events_processed == processed and sim.now == 100.0


def test_close_frees_an_actor_that_holds_its_own_timer(sim):
    """An actor keeping the handle of a timer that calls it back is a
    cycle only while the timer is pending; closing ends it."""

    class Actor:
        def tick(self) -> None:
            pass

    actor = Actor()
    actor.timer = sim.every(1.0, actor.tick)
    sim.run_until(3.5)
    alive = weakref.ref(actor)
    del actor
    gc.disable()
    try:
        assert alive() is not None
        sim.close()
        assert alive() is None
    finally:
        gc.enable()
