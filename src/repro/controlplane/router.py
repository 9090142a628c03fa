"""Sans-IO request router: shard fan-out and cross-shard TopN merge.

The router owns exactly the logic a single manager's
``GlobalSelectionPolicy.select`` runs in one process, decomposed into
fixed-radius phases the shards can answer independently:

1. fan out at ``radius_km`` to the shards covering the query disc;
2. if the summed exact in-radius counts reach ``top_n``, merge; else
3. fan out at ``wide_radius_km`` and keep the wide result only when it
   is strictly larger (the single-manager widening rule, verbatim);
4. cut the global TopN from the concatenated per-shard TopNs with the
   same ``heapq.nsmallest`` + total-order key (one shard's TopN, already
   in key order, is the answer as it stands).

Bit-identity argument: the shards partition the registry, a node within
radius lies in a covering cell so its owner shard is queried, any
member of the global TopN is beaten by fewer than ``top_n`` candidates
globally — hence within its own shard — so it survives into its
shard's local TopN; and the summed counts equal the single manager's
``len(local)``/``len(wide)`` exactly, replaying the widening decision.
Unique node ids plus the node-id tie-breaker in the sort key make the
merged order a total order independent of shard interleaving. A
hypothesis property test holds this bit-for-bit.

Transport-free by design: drivers supply ``fetch(shard, radius_km)``.
The sim ``CentralManager`` calls machines synchronously; the live
driver resolves the same two phases with awaited socket requests via
:meth:`ShardRouter.plan`/:meth:`ShardRouter.merge`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, Optional, Sequence, Tuple, cast

from repro.controlplane.sharding import ShardMap, disc_owners, owner_of_prefix
from repro.messages import DiscoveryQuery, NodeStatus
from repro.obs.events import ShardMerge, ShardRoute
from repro.obs.tracer import Tracer
from repro.policy.global_policy import GlobalSelectionPolicy

__all__ = ["PartialSelection", "RoutedSelection", "ShardRouter", "emit_routing"]


@dataclass(frozen=True, slots=True)
class PartialSelection:
    """One shard's answer to one fixed-radius phase: its exact in-radius
    count plus its local TopN statuses, best first (in the order of the
    policy's sort key, which is how ``select_partial`` returns them)."""

    shard: int
    count: int
    statuses: Tuple[NodeStatus, ...]


@dataclass(frozen=True, slots=True)
class RoutedSelection:
    """The merged discovery answer plus routing metadata for obs/bench."""

    node_ids: Tuple[str, ...]
    widened: bool
    local_shards: Tuple[int, ...]
    wide_shards: Tuple[int, ...]
    pool: int

    @property
    def shards_queried(self) -> Tuple[int, ...]:
        return tuple(sorted(set(self.local_shards) | set(self.wide_shards)))

    @property
    def cross_shard(self) -> bool:
        return len(self.shards_queried) > 1


def emit_routing(
    tracer: Tracer, now: float, user_id: str, routed: RoutedSelection
) -> None:
    """Trace one routed discovery: a ``shard_route``, and a
    ``shard_merge`` when more than one shard answered."""
    tracer.emit(
        ShardRoute(
            now,
            user_id=user_id,
            shards=routed.shards_queried,
            cross_shard=routed.cross_shard,
        )
    )
    if routed.cross_shard:
        tracer.emit(
            ShardMerge(
                now,
                user_id=user_id,
                shards=len(routed.shards_queried),
                pool=routed.pool,
                widened=routed.widened,
            )
        )


_count = attrgetter("count")
_shard = attrgetter("shard")
_node_id = attrgetter("node_id")

#: Driver-supplied transport: answer one (shard, radius) phase. Raises
#: (typically ``ControlPlaneUnavailable``) when the shard cannot serve.
Fetch = Callable[[int, float], PartialSelection]


class ShardRouter:
    """Routes heartbeats to owners and discovery to covering shards."""

    def __init__(self, shard_map: ShardMap, policy: GlobalSelectionPolicy) -> None:
        self.shard_map = shard_map
        self.policy = policy
        self._count = shard_map.count
        self._precision = shard_map.precision

    # ------------------------------------------------------------------
    # Heartbeat / registration routing
    # ------------------------------------------------------------------
    def owner_of(self, status: NodeStatus) -> int:
        """The shard owning a node's registry entry (by its geohash).
        Memoised per shard-precision prefix (:func:`owner_of_prefix`)."""
        precision = self._precision
        return owner_of_prefix(self._count, precision, status.geohash[:precision])

    # ------------------------------------------------------------------
    # Discovery fan-out
    # ------------------------------------------------------------------
    def plan(self, query: DiscoveryQuery, radius_km: float) -> Tuple[int, ...]:
        """The shards one phase of ``query`` must ask: those whose
        ranges the cells covering the ``radius_km`` disc intersect. A
        one-shard map owns every cell: no cover is computed. Memoised
        per (map, point, radius) (:func:`disc_owners`): a map is fixed
        for its life, so the owners of a disc are too."""
        if self._count == 1:
            return (0,)
        return disc_owners(self._count, self._precision, query.lat, query.lon, radius_km)

    def needs_widening(self, query: DiscoveryQuery, local: Sequence[PartialSelection]) -> bool:
        """Whether the single-manager rule would try the wide radius."""
        return sum(map(_count, local)) < query.top_n

    def merge(
        self,
        query: DiscoveryQuery,
        local: Sequence[PartialSelection],
        wide: Optional[Sequence[PartialSelection]] = None,
    ) -> RoutedSelection:
        """Replay the widening decision and cut the global TopN.

        ``wide`` is None when the local phase already satisfied
        ``top_n`` (the driver never fetched phase 2).
        """
        widened = False
        chosen: Sequence[PartialSelection] = local
        if wide is not None and sum(map(_count, wide)) > sum(map(_count, local)):
            widened = True
            chosen = wide
        # A lone partial is its shard's TopN, already in key order: the
        # answer as it stands, nothing scored again.
        pool: Sequence[NodeStatus]
        best: Sequence[NodeStatus]
        if len(chosen) == 1:
            pool = chosen[0].statuses
            best = pool[: max(query.top_n, 0)]
        else:
            pool = [s for p in chosen for s in p.statuses]
            # The factory is declared as returning an opaque ``object``
            # key (policies compose tuples of mixed comparables); cast
            # for the nsmallest stub, which wants SupportsRichComparison.
            sort_key = cast(
                "Callable[[NodeStatus], Any]", self.policy.sort_key_factory(query)
            )
            best = heapq.nsmallest(query.top_n, pool, key=sort_key)
        return RoutedSelection(
            tuple(map(_node_id, best)),
            widened,
            tuple(map(_shard, local)),
            () if wide is None else tuple(map(_shard, wide)),
            len(pool),
        )

    def select(self, query: DiscoveryQuery, fetch: Fetch) -> RoutedSelection:
        """Full two-phase routed selection over a synchronous transport."""
        geo = self.policy.geo_filter
        local = [
            fetch(shard, geo.radius_km) for shard in self.plan(query, geo.radius_km)
        ]
        if not self.needs_widening(query, local):
            return self.merge(query, local)
        wide = [
            fetch(shard, geo.wide_radius_km)
            for shard in self.plan(query, geo.wide_radius_km)
        ]
        return self.merge(query, local, wide)
