"""Evaluation baselines (§V-B) and the optimal-assignment solver.

Every baseline reuses :class:`~repro.core.client.EdgeClient`'s offloading
loop, adaptation and failure detection — only *selection* differs — so
latency comparisons isolate the selection policy:

- :class:`~repro.baselines.geo_proximity.GeoProximityClient` — "users
  are assigned to their closest edge nodes geographically"; no probing,
  no capacity awareness.
- :class:`~repro.baselines.resource_aware.ResourceAwareWRRClient` —
  manager-side smooth weighted round robin over resource availability.
- :class:`~repro.baselines.static_pin.StaticPinClient` — pinned to one
  node (the "closest cloud" baseline).
- :func:`~repro.baselines.dedicated_only.dedicated_only_policy` — a
  global-policy restriction to dedicated nodes (the "dedicated-only edge
  infrastructure" baseline keeps the client-centric algorithm but has
  only the Local Zone instances to choose from).
- :mod:`~repro.baselines.optimal` — the offline optimal Edge Assignment
  used as the reference line in Fig. 7 (exhaustive for tiny instances,
  greedy + local search with restarts beyond that).
"""

from repro.baselines.dedicated_only import dedicated_only_policy
from repro.baselines.geo_proximity import GeoProximityClient
from repro.baselines.optimal import (
    Assignment,
    OptimalInstance,
    evaluate_assignment,
    solve_optimal,
)
from repro.baselines.resource_aware import ResourceAwareWRRClient
from repro.baselines.static_pin import StaticPinClient

__all__ = [
    "GeoProximityClient",
    "ResourceAwareWRRClient",
    "StaticPinClient",
    "dedicated_only_policy",
    "OptimalInstance",
    "Assignment",
    "solve_optimal",
    "evaluate_assignment",
]
