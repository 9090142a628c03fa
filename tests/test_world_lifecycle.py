"""A dropped sim world frees itself.

The world owns its actors, the actors never hold it strongly, and a
dropped world closes its simulator. So each world below, run for one
simulated second with the cycle collector off, is freed the moment it
is dropped; a collection afterwards finds nothing of the program's own.
A raise in ``EdgeSystem.__del__`` would only be printed, so CI runs this
file with unraisable exceptions as errors.
"""

import gc
import sys
import weakref

import pytest

from repro.api import ScenarioBuilder
from repro.baselines import GeoProximityClient
from repro.core.client import EdgeClient
from repro.core.config import SystemConfig
from repro.core.system import EdgeSystem
from repro.faults.injector import FaultInjector
from repro.faults.scenarios import CANONICAL, chaos_plan
from repro.geo.point import GeoPoint
from repro.nodes.hardware import VOLUNTEER_PROFILES

CENTER = GeoPoint(44.97, -93.25)


def _builder(**client_kwargs) -> ScenarioBuilder:
    builder = ScenarioBuilder(SystemConfig(seed=11, probing_period_ms=500.0))
    for i in range(6):
        builder.node(f"n{i}", VOLUNTEER_PROFILES[i % len(VOLUNTEER_PROFILES)],
                     point=CENTER.offset_km(0.7 * i, -0.4 * i))
    for i in range(4):
        builder.client(f"u{i}", point=CENTER.offset_km(-0.3 * i, 0.5 * i),
                       **client_kwargs)
    return builder


def default_world() -> EdgeSystem:
    return _builder().build()


def reactive_world() -> EdgeSystem:
    return _builder(factory=GeoProximityClient).build()


def fault_plan_world() -> EdgeSystem:
    """The all-families chaos plan over 2 s: at 1 s its partition has
    come and gone, and its crash, restart, outage and gray node are
    still pending on the heap."""
    plan = chaos_plan(CANONICAL.edge_ids, horizon_ms=2_000.0)
    world = CANONICAL.world(2)
    system = EdgeSystem(SystemConfig(seed=5), world=world,
                        faults=FaultInjector(plan, seed=5))
    for user_id in world.user_ids:
        system.add_client(EdgeClient(system, user_id))
    return system


@pytest.fixture
def no_collector():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "build", [default_world, reactive_world, fault_plan_world],
    ids=["default", "reactive-baseline", "fault-plan"],
)
def test_a_dropped_world_is_freed_at_once(build, no_collector):
    system = build()
    system.run_for(1_000.0)
    assert system.sim.events_processed > 0
    world = weakref.ref(system)
    del system
    assert world() is None
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        left = sorted({
            f"{type(obj).__module__}.{type(obj).__qualname__}"
            for obj in gc.garbage
            if type(obj).__module__.split(".")[0] == "repro"
        })
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert left == []


def test_a_half_built_world_is_dropped_quietly(monkeypatch):
    """A constructor that raised before the simulator existed leaves a
    world whose ``__del__`` has nothing to close."""
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with pytest.raises(AttributeError):
        EdgeSystem(config="not a config")  # type: ignore[arg-type]
    gc.collect()
    assert unraisable == []

