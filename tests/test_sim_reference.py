"""The kernel against a reference model of its contract.

The reference keeps pending events in a plain list and, at each step,
fires the earliest live one by ``(time, scheduling order)``: no heap, no
sequence numbers, no lazy deletion. During a callback the clock reads the
event's time; after ``run_until(t)`` it reads ``t`` unless the run was
stopped. Hypothesis drives both through the same interleavings of
``schedule``, ``schedule_at``, ``cancel`` (from outside and from inside a
callback, its own included), ``every`` (a timer that cancels itself from
its own callback), ``run_until`` and ``stop``; the fired sequence, the
clock each callback saw, ``events_processed`` and the final clock must
agree.
"""

from hypothesis import given, settings, strategies as st

from repro.sim.kernel import Simulator


class _Entry:
    def __init__(self, time, order, callback):
        self.time = time
        self.order = order
        self.callback = callback
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class _Timer:
    def __init__(self):
        self.cancelled = False
        self.current = None

    def cancel(self):
        self.cancelled = True
        if self.current is not None:
            self.current.cancel()


class Reference:
    """The kernel's contract, written as a sorted-list scan."""

    def __init__(self):
        self.now = 0.0
        self.events_processed = 0
        self._pending = []
        self._order = 0
        self._stopped = False

    def schedule_at(self, when, callback):
        assert when >= self.now
        entry = _Entry(when, self._order, callback)
        self._order += 1
        self._pending.append(entry)
        return entry

    def schedule(self, delay, callback):
        return self.schedule_at(self.now + delay if delay >= 0 else self.now, callback)

    def every(self, period, callback, *, start_after=None):
        """A one-shot that runs ``callback`` and, unless the timer was
        cancelled meanwhile, schedules the next one-shot a period later."""
        timer = _Timer()

        def fire():
            if timer.cancelled:
                return
            callback()
            if not timer.cancelled:
                timer.current = self.schedule(period, fire)

        timer.current = self.schedule(
            period if start_after is None else start_after, fire
        )
        return timer

    def stop(self):
        self._stopped = True

    def run_until(self, until):
        self._stopped = False
        while not self._stopped:
            due = [e for e in self._pending if not e.cancelled and e.time <= until]
            if not due:
                break
            entry = min(due, key=lambda e: (e.time, e.order))
            self._pending.remove(entry)
            self.now = entry.time
            self.events_processed += 1
            entry.callback()
        if not self._stopped and self.now < until:
            self.now = until


DELAYS = st.sampled_from([-1.0, 0.0, 0.0, 0.5, 1.0, 1.0, 2.5, 4.0])
OPS = st.one_of(
    st.tuples(st.just("schedule"), DELAYS, st.none() | DELAYS),
    st.tuples(st.just("schedule_at"), st.sampled_from([0.0, 0.5, 1.0, 3.0])),
    st.tuples(st.just("cancel"), st.integers(0, 30)),
    st.tuples(st.just("cancel_later"), DELAYS, st.integers(0, 30)),
    st.tuples(
        st.just("every"),
        st.sampled_from([0.5, 1.0, 2.0]),
        st.sampled_from([None, 0.0, 1.5]),
        st.integers(1, 4),
    ),
    st.tuples(st.just("stop_later"), DELAYS),
    st.tuples(st.just("stop"),),
    st.tuples(st.just("run_until"), st.sampled_from([-1.0, 0.0, 0.5, 2.0, 5.0])),
)


def drive(sim, ops):
    """Apply ``ops`` to ``sim``; return what its callbacks observed."""
    seen = []
    handles = []

    def record(tag):
        seen.append((tag, sim.now))

    def cancel(index):
        if handles:
            handles[index % len(handles)].cancel()

    for i, op in enumerate(ops):
        kind = op[0]
        if kind == "schedule":
            _, delay, child = op

            def one_shot(tag=f"s{i}", child=child):
                record(tag)
                if child is not None:
                    handles.append(sim.schedule(child, lambda: record(tag + "+")))

            handles.append(sim.schedule(delay, one_shot))
        elif kind == "schedule_at":
            handles.append(sim.schedule_at(sim.now + op[1], lambda t=f"a{i}": record(t)))
        elif kind == "cancel":
            cancel(op[1])
        elif kind == "cancel_later":
            _, delay, index = op
            handles.append(
                sim.schedule(delay, lambda t=f"c{i}", k=index: (record(t), cancel(k)))
            )
        elif kind == "every":
            _, period, start_after, fires = op
            box = []

            def tick(tag=f"e{i}", box=box, fires=fires):
                record(tag)
                if sum(1 for t, _ in seen if t == tag) == fires:
                    box[0].cancel()

            box.append(sim.every(period, tick, start_after=start_after))
            handles.append(box[0])
        elif kind == "stop_later":
            handles.append(
                sim.schedule(op[1], lambda t=f"x{i}": (record(t), sim.stop()))
            )
        elif kind == "stop":
            sim.stop()
        else:
            sim.run_until(sim.now + op[1])
            seen.append(("run_until", sim.now))
    sim.run_until(sim.now + 20.0)
    return seen, sim.events_processed, sim.now


@settings(max_examples=300, deadline=None)
@given(st.lists(OPS, max_size=40))
def test_kernel_matches_the_reference_model(ops):
    assert drive(Simulator(), ops) == drive(Reference(), ops)


def test_reference_model_is_not_vacuous():
    """One hand-built interleaving, with the answer written out."""
    ops = [
        ("schedule", 1.0, 0.0),
        ("schedule_at", 1.0),
        ("every", 1.0, None, 2),
        ("stop_later", 2.5),
        ("run_until", 5.0),
    ]
    seen, processed, now = drive(Reference(), ops)
    assert seen == [
        ("s0", 1.0), ("a1", 1.0), ("e2", 1.0), ("s0+", 1.0),
        ("e2", 2.0), ("x3", 2.5), ("run_until", 2.5),
    ]
    assert (processed, now) == (6, 22.5)
    assert drive(Simulator(), ops) == (seen, processed, now)
