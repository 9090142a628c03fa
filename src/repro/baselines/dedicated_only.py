"""Dedicated-only edge infrastructure baseline.

"Dedicated-only edge refers to the existing edge infrastructure with
limited PoP and resource capacity. In our experiments, we use AWS Local
Zone with a static number of EC2 instances to emulate this category of
resources" (§V-B).

The baseline keeps the full client-centric algorithm but restricts the
manager's candidate pool to dedicated nodes — isolating the *resource
model* (scarce dedicated PoPs vs dense volunteers) from the *selection
algorithm*. Its weakness in Fig. 5 is pure capacity: with 15 users on 4
instances the pool "lacks hardware scaling flexibility upon increasing
workload".
"""

from __future__ import annotations

from repro.messages import NodeStatus
from repro.policy.global_policy import (
    GeoProximityFilter,
    GlobalSelectionPolicy,
)


def is_dedicated(status: NodeStatus) -> bool:
    """Predicate: heartbeat says the node is dedicated infrastructure."""
    return status.dedicated


def dedicated_only_policy(
    radius_km: float = 80.0, wide_radius_km: float = 400.0
) -> GlobalSelectionPolicy:
    """A global selection policy that only ever returns dedicated nodes.

    Install it as the system's ``global_policy`` to run the
    dedicated-only scenario with otherwise unchanged clients.
    """
    return GlobalSelectionPolicy(
        geo_filter=GeoProximityFilter(
            radius_km=radius_km, wide_radius_km=wide_radius_km
        ),
        node_predicate=is_dedicated,
    )
