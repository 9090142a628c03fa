"""The sans-IO protocol core: the paper's algorithms, backend-free.

The 2-step distributed edge selection protocol (global candidate list →
local probe/rank/join with backups and instant failover) is implemented
**once**, as three pure state machines — one per protocol role:

- :class:`~repro.protocol.selection.SelectionMachine` — the client
  selection round (Algorithm 2) and the failover walk (§IV-E);
- :class:`~repro.protocol.admission.AdmissionMachine` — the edge
  server's seqNum join synchronization (Algorithm 1) and the what-if
  cache invalidation/update rules (§IV-C2);
- :class:`~repro.protocol.global_select.GlobalSelectionMachine` — the
  Central Manager's registry, expiry and TopN candidate ranking
  (§IV-B).

Each machine consumes typed :mod:`~repro.protocol.events` (every event
carries an explicit ``now``) and returns typed
:mod:`~repro.protocol.effects`; it has zero knowledge of clocks,
sockets, or the simulator kernel.

Every machine's effects are interpreted once, here, by
:mod:`~repro.protocol.driver`: ``ClientDriver``, ``EdgeDriver`` and
``ManagerDriver`` own dispatch, timers, links, stats, the Table I
handlers and the manager's failover. The discrete-event backend
(``repro.core``) and the live asyncio one (``repro.runtime``)
subclass them and supply only transport and physics; no module outside
this package names one of these effects (held by
``tests/test_layering.py``).

This package is fully typed (checked with ``mypy --strict`` in CI) and
imports nothing from ``repro.core``, ``repro.runtime`` or ``repro.sim``
— the messages it carries are :mod:`repro.messages`, the policies it
consults :mod:`repro.policy`, both below it — so either backend can
import it freely. See DESIGN.md §8 for the event/effect tables and a
sequence diagram of one selection round.
"""

from repro.protocol.failure_monitor import FailureMonitor
from repro.protocol.selection import SelectionConfig, SelectionMachine
from repro.protocol.admission import AdmissionConfig, AdmissionMachine
from repro.protocol.global_select import GlobalSelectionMachine
from repro.protocol.driver import ClientDriver, ClientStats, EdgeDriver, ManagerDriver

__all__ = [
    # machines
    "SelectionMachine",
    "SelectionConfig",
    "AdmissionMachine",
    "AdmissionConfig",
    "GlobalSelectionMachine",
    "FailureMonitor",
    # drivers
    "ClientDriver",
    "ClientStats",
    "EdgeDriver",
    "ManagerDriver",
]
