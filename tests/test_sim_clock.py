"""Unit tests for the simulator's clock, ``Simulator.now``."""

import pytest

from repro.sim.kernel import Simulator


def test_starts_at_zero_by_default():
    assert Simulator().now == 0.0


def test_starts_at_custom_time():
    assert Simulator(12.5).now == 12.5


def test_rejects_negative_start():
    with pytest.raises(ValueError):
        Simulator(-1.0)


def test_advance_moves_forward():
    sim = Simulator()
    sim.run_until(5.0)
    assert sim.now == 5.0
    sim.run_until(7.25)
    assert sim.now == 7.25


def test_advance_to_same_time_is_allowed():
    sim = Simulator(3.0)
    sim.run_until(3.0)
    assert sim.now == 3.0


def test_advance_backwards_raises():
    """The loop refuses an entry earlier than the clock. Scheduling
    cannot make one, so the entry is rewritten in place."""
    sim = Simulator(10.0)
    event = sim.schedule(1.0, lambda: None)
    event[0] = 9.999
    with pytest.raises(ValueError, match="backwards"):
        sim.run_until(20.0)
    assert sim.now == 10.0


def test_clock_is_a_float_after_integer_times():
    sim = Simulator(2)
    assert type(sim.now) is float
    sim.run_until(7)
    assert type(sim.now) is float and sim.now == 7.0


def test_repr_mentions_time():
    assert "12.5" in repr(Simulator(12.5))
