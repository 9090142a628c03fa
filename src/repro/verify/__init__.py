"""repro.verify — streaming trace invariants for chaos runs.

The recovery guarantees the paper's elasticity story rests on — failover
within a detection budget, standby promotion inside the
failure-detection window, no stranded admission state, degraded
fallback only under manager loss — were previously checked only as
end-state assertions against a handful of hand-written plans. This
package turns each guarantee into a typed, composable **streaming
invariant** checked event-by-event over any obs JSONL trace, from
either backend:

- :func:`check_events` runs the full suite over a trace (event objects
  or wire dicts) and returns a list of typed :class:`Violation`\\ s,
  each pinned to the event index and timestamp that tripped it;
- :func:`lifecycle_invariants` is the budget-free pair outside that
  suite — event order and phase reconciliation, which ``repro trace``
  reports: the one place a trace is judged is this package;
- :class:`Budgets` carries the timing budgets the invariants enforce
  (plan-time milliseconds, scaled by ``time_scale`` for wall-clock
  traces from the live runtime);
- :mod:`repro.verify.endstate` re-expresses the original end-of-run
  attachment checks from :mod:`repro.faults.scenarios` as a pure
  function over an :class:`~repro.verify.endstate.AttachmentView`, so
  both backends share one implementation.

The schedule-search engine in :mod:`repro.faults.search` drives this
suite over machine-generated adversarial fault plans and shrinks any
violating schedule to a minimal reproducer.
"""

from repro.verify.endstate import AttachmentView, check_attachment_view
from repro.verify.invariants import (
    AttachmentConsistency,
    Budgets,
    ClientStall,
    DegradedFallbackCorrect,
    EventOrder,
    Invariant,
    NoSplitBrain,
    PhaseReconciliation,
    PromotionBudget,
    SeqMonotonic,
    Violation,
    check_events,
    default_invariants,
    lifecycle_invariants,
)

__all__ = [
    "AttachmentConsistency",
    "AttachmentView",
    "Budgets",
    "ClientStall",
    "DegradedFallbackCorrect",
    "EventOrder",
    "Invariant",
    "NoSplitBrain",
    "PhaseReconciliation",
    "PromotionBudget",
    "SeqMonotonic",
    "Violation",
    "check_attachment_view",
    "check_events",
    "default_invariants",
    "lifecycle_invariants",
]
