"""Unit and property tests for events: stable order and cancellation,
observed through the ``Simulator`` that owns the heap."""

import random

from hypothesis import given, strategies as st

from repro.sim.events import Event
from repro.sim.kernel import Simulator


def timed(times):
    """A simulator with an event at each of ``times`` that records the
    clock it fired at; returns the simulator, its events and the record."""
    sim = Simulator()
    seen = []
    events = [sim.schedule_at(t, lambda: seen.append(sim.now)) for t in times]
    return sim, events, seen


def test_pop_returns_none_when_empty():
    assert Simulator().step() is False


def test_events_pop_in_time_order():
    sim, _, seen = timed([5.0, 1.0, 3.0])
    sim.run()
    assert seen == [1.0, 3.0, 5.0]


def test_same_time_events_pop_in_insertion_order():
    sim = Simulator()
    order = []
    first = sim.schedule_at(2.0, lambda: order.append("first"))
    second = sim.schedule_at(2.0, lambda: order.append("second"))
    sim.run()
    assert order == ["first", "second"]
    assert first.seq < second.seq


def test_cancelled_events_are_skipped():
    sim = Simulator()
    order = []
    sim.schedule_at(1.0, lambda: order.append("keep"))
    sim.schedule_at(0.5, lambda: order.append("cancel")).cancel()
    sim.run()
    assert order == ["keep"]
    assert sim.events_processed == 1
    assert sim.step() is False


def test_cancel_drops_callback_reference():
    holder = {"alive": True}

    def callback():
        return holder

    event = Simulator().schedule(1.0, callback)
    assert event.callback is callback and not event.cancelled
    event.cancel()
    assert event.callback is None and event.cancelled


def test_len_counts_heap_entries():
    """The profiler's queue depth counts heap entries, cancelled ones too."""
    depths = []

    class Depths:
        def record(self, label, ms, depth):
            depths.append((label, depth))

    sim = Simulator()
    sim.profiler = Depths()
    sim.schedule_at(1.0, lambda: None, label="a")
    sim.schedule_at(2.0, lambda: None, label="b").cancel()
    sim.schedule_at(3.0, lambda: None, label="c")
    assert "pending=3" in repr(sim)
    sim.run()
    assert depths == [("a", 2), ("c", 0)]
    assert "pending=0" in repr(sim)


def test_event_is_its_own_heap_entry():
    sim = Simulator()
    callback = lambda: None  # noqa: E731
    event = sim.schedule_at(4.0, callback, label="x")
    assert type(event) is Event and isinstance(event, list)
    assert sim._heap == [event] and sim._heap[0] is event
    assert (event.time, event.label, event.callback) == (4.0, "x", callback)
    assert event == [4.0, event.seq, callback, "x"]
    assert not hasattr(event, "__dict__")


def test_event_repr_shows_state():
    event = Simulator().schedule(1.0, lambda: None, label="hello")
    assert "pending" in repr(event)
    assert "hello" in repr(event)
    event.cancel()
    assert "cancelled" in repr(event)


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200))
def test_property_pop_order_is_nondecreasing(times):
    sim, _, popped = timed(times)
    sim.run()
    assert popped == sorted(popped)
    assert len(popped) == len(times)


@given(
    st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=100),
    st.data(),
)
def test_property_cancellation_removes_exactly_those_events(times, data):
    sim, events, popped = timed(times)
    to_cancel = data.draw(
        st.lists(st.integers(min_value=0, max_value=len(events) - 1), unique=True)
    )
    for index in to_cancel:
        events[index].cancel()
    surviving = sorted(
        t for i, t in enumerate(times) if i not in set(to_cancel)
    )
    sim.run()
    assert popped == surviving


def test_large_random_workload_stays_ordered():
    rng = random.Random(7)
    sim, _, popped = timed([rng.uniform(0, 1000) for _ in range(5_000)])
    sim.run()
    assert popped == sorted(popped)
    assert len(popped) == 5_000 == sim.events_processed
