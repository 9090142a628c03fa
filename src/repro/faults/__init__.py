"""repro.faults — deterministic fault injection for both backends.

Declare a :class:`FaultPlan` (message drop/delay/duplication, asymmetric
partitions, node crash *and restart*, manager outages, gray nodes), bind
it to a seed in a :class:`FaultInjector`, and hand it to either backend:

- sim: ``EdgeSystem(..., faults=injector)`` — faults replay
  bit-identically for a given seed;
- live: ``ChaosController(cluster, injector)`` from
  :mod:`repro.faults.scenarios` drives the same plan against a loopback
  cluster on the wall clock.

:func:`repro.faults.scenarios.run_chaos` does either over a
:class:`~repro.faults.scenarios.ChaosScenario` and checks the recovery
invariants (refusing, before anything boots, a plan the backend cannot
honour); :mod:`repro.faults.search` hunts the schedule space through it.

Every injected fault emits a typed
:class:`~repro.obs.events.FaultInjected` trace event; every recovery
action the system takes in response already has its own event
(``covered_failover``, ``degraded_fallback``, ``node_restart``,
``breaker_transition``, ``retry_scheduled``), so a chaos run's full
cause-and-effect chain is reconstructable from one trace.
"""

from repro.faults.injector import (
    MANAGER_ID,
    FaultInjector,
    MessageDecision,
    NodeAction,
)
from repro.faults.plan import (
    MESSAGE_OPS,
    FaultPlan,
    GrayNode,
    ManagerOutage,
    MessageFault,
    NodeCrash,
    Partition,
    Window,
    plan_from_dict,
    plan_to_dict,
)

__all__ = [
    "FaultPlan",
    "FaultInjector",
    "MessageDecision",
    "NodeAction",
    "MessageFault",
    "Partition",
    "NodeCrash",
    "ManagerOutage",
    "GrayNode",
    "Window",
    "MESSAGE_OPS",
    "MANAGER_ID",
    "plan_to_dict",
    "plan_from_dict",
]
