"""Both steps of the paper's 2-step edge selection (``repro.policy``).

Step 1, manager side: :mod:`repro.policy.global_policy` filters by
geo-proximity and sorts by availability into the TopN candidate list
(:mod:`repro.policy.reputation` is a drop-in sort key that discounts
flaky volunteers). Step 2, client side: the pluggable policies behind
the :class:`~repro.protocol.selection.SelectionMachine`'s ranking and
backup-ordering decisions. See :mod:`repro.policy.base` for their
contract, :mod:`repro.policy.baselines` for the paper's LO/GO/QoS,
:mod:`repro.policy.predictive` for the history-aware policies, and
:mod:`repro.policy.registry` for resolving string specs
(``SystemConfig.policy_spec``, sweeps, the CLI).

Quickstart::

    from repro.policy import build_policy, get, policy_names

    policy_names()                 # ['churn', 'ewma', 'go', 'lo', 'reliability']
    get("reliability")             # the factory class
    build_policy("ewma", params={"alpha": 0.5})   # a configured instance
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
    CallableRankingPolicy,
    GlobalOverheadPolicy,
    LocalOverheadPolicy,
    QosGatedPolicy,
    as_policy,
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
    PolicySpec,
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
    "CallableRankingPolicy",
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
    "PolicySpec",
    "ProbeObserved",
    "ProbeTimeout",
    "QosGatedPolicy",
    "Ranking",
    "RankingContext",
    "ReliabilityPolicy",
    "ReputationTracker",
    "SelectionPolicy",
    "as_policy",
    "availability_sort_key",
    "build_policy",
    "describe",
    "get",
    "make",
    "policy_names",
    "register",
]
