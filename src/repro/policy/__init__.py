"""Both steps of the paper's 2-step edge selection (``repro.policy``).

Step 1, manager side: :mod:`repro.policy.global_policy` filters by
geo-proximity and sorts by availability into the TopN candidate list
(:mod:`repro.policy.reputation` is a drop-in sort key that discounts
flaky volunteers). Step 2, client side: the pluggable policies behind
the :class:`~repro.protocol.selection.SelectionMachine`'s ranking and
backup-ordering decisions. See :mod:`repro.policy.base` for their
contract, :mod:`repro.policy.baselines` for the paper's LO/GO/QoS,
:mod:`repro.policy.predictive` for the history-aware policies, and
:mod:`repro.policy.registry` for the names a client chooses its policy
by (``SystemConfig.policy_spec``, ``LiveClient(policy=...)``, sweeps,
the CLI).

Quickstart::

    from repro.policy import EwmaRttPolicy, get, make, policy_names, register

    policy_names()                 # ['churn', 'ewma', 'go', 'lo', 'reliability']
    get("reliability")             # the factory class
    make("ewma", alpha=0.5)        # a configured instance
    register("ewma-fast", lambda: EwmaRttPolicy(alpha=0.5))
    # ... then SystemConfig(policy_spec="ewma-fast")
"""

from repro.policy.base import (
    AttachmentObserved,
    CandidateChurn,
    DegradedDiscovery,
    FailoverObserved,
    NodeFailureObserved,
    PolicyObservation,
    ProbeObserved,
    ProbeTimeout,
    Ranking,
    RankingContext,
    SelectionPolicy,
)
from repro.policy.baselines import (
    GlobalOverheadPolicy,
    LocalOverheadPolicy,
    QosGatedPolicy,
)
from repro.policy.global_policy import (
    GeoProximityFilter,
    GlobalSelectionPolicy,
    availability_sort_key,
)
from repro.policy.predictive import (
    ChurnAwarePolicy,
    EwmaRttPolicy,
    ReliabilityPolicy,
)
from repro.policy.registry import (
    build_policy,
    describe,
    get,
    make,
    policy_names,
    register,
)
from repro.policy.reputation import ReputationTracker

__all__ = [
    "AttachmentObserved",
    "CandidateChurn",
    "ChurnAwarePolicy",
    "DegradedDiscovery",
    "EwmaRttPolicy",
    "FailoverObserved",
    "GeoProximityFilter",
    "GlobalOverheadPolicy",
    "GlobalSelectionPolicy",
    "LocalOverheadPolicy",
    "NodeFailureObserved",
    "PolicyObservation",
    "ProbeObserved",
    "ProbeTimeout",
    "QosGatedPolicy",
    "Ranking",
    "RankingContext",
    "ReliabilityPolicy",
    "ReputationTracker",
    "SelectionPolicy",
    "availability_sort_key",
    "build_policy",
    "describe",
    "get",
    "make",
    "policy_names",
    "register",
]
