"""Manager-side global edge selection (step 1 of the 2-step approach).

"We first apply a geo-proximity filter to rule out unqualified nodes, and
then prioritize the local candidates based on resource availability,
network affiliation and user preferences. Specifically in geo-proximity
search, we use GeoHash to identify a wider-range geographical area to
include remote nodes which may be useful as a last resort" (§IV-B).

The policy is deliberately coarse: "the global edge selection of our
2-step approach is coarse-grained with high tolerance to edge selection
inaccuracy and mismatch" — final accuracy comes from client probing.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.geo import geohash as gh
from repro.geo.point import GeoPoint, haversine_km_coords
from repro.geo.spatial_index import GeohashSpatialIndex, SlotArray
from repro.messages import DiscoveryQuery, NodeStatus


@dataclass(frozen=True)
class GeoProximityFilter:
    """GeoHash-backed proximity filter with a widened fallback.

    Nodes are first matched against the GeoHash cells covering the disc
    of ``radius_km`` around the user (:func:`repro.geo.geohash.cover`),
    then cut exactly by haversine distance. If fewer than ``min_candidates``
    survive, the search widens to ``wide_radius_km`` — the paper's
    "remote nodes ... useful as a last resort".
    """

    radius_km: float = 80.0
    wide_radius_km: float = 400.0
    min_candidates: int = 1

    def __post_init__(self) -> None:
        if self.radius_km <= 0 or self.wide_radius_km < self.radius_km:
            raise ValueError("need 0 < radius_km <= wide_radius_km")
        if self.min_candidates < 0:
            raise ValueError("min_candidates must be >= 0")

    def apply(
        self,
        user_point: GeoPoint,
        nodes: Sequence[NodeStatus],
        min_candidates: Optional[int] = None,
    ) -> Tuple[List[NodeStatus], bool]:
        """Return (surviving nodes, widened?).

        ``min_candidates`` (defaulting to the filter's own) is normally
        the query's TopN: a candidate list shorter than TopN silently
        strips the user of backup nodes, so remote nodes — "useful as a
        last resort" — are pulled in whenever the local area cannot
        fill the list.
        """
        needed = self.min_candidates if min_candidates is None else min_candidates
        local = self._within(user_point, nodes, self.radius_km)
        if len(local) >= needed:
            return local, False
        wide = self._within(user_point, nodes, self.wide_radius_km)
        if len(wide) > len(local):
            return wide, True
        return local, False

    def within_indexed(
        self,
        user_point: GeoPoint,
        index: GeohashSpatialIndex[NodeStatus],
        radius_km: float,
        *,
        exclude: Sequence[str] = (),
        predicate: Optional[Callable[[NodeStatus], bool]] = None,
    ) -> SlotArray:
        """One fixed-radius phase of :meth:`apply` against an index: the
        slots of exactly the nodes ``_within`` would keep.

        The widening rule is the caller's: ``select`` replays it over two
        phases of one index, the control-plane router over the summed
        counts of its shards' phases. ``exclude``/``predicate`` are
        applied here (with an index there is no pool to pre-filter), by
        copy: the cut is the index's, shared between calls
        (:meth:`GeohashSpatialIndex.within_cover`).
        """
        slots = index.within_cover(user_point.lat, user_point.lon, radius_km)
        if exclude or predicate is not None:
            keep = np.ones(slots.size, dtype=np.bool_)
            for node_id in exclude:
                slot = index.slot_of(node_id)
                if slot is not None:
                    keep &= slots != slot
            if predicate is not None:
                for i in np.flatnonzero(keep).tolist():
                    keep[i] = predicate(index.status_at(int(slots[i])))
            slots = slots[keep]
        return slots

    def _within(
        self, user_point: GeoPoint, nodes: Sequence[NodeStatus], radius_km: float
    ) -> List[NodeStatus]:
        # GeoHash pre-filter: candidate cells covering the radius...
        cells = set(gh.covering_cells(user_point, radius_km))
        precision = len(next(iter(cells)))
        prefiltered = [
            n for n in nodes if n.geohash[:precision] in cells
        ]
        # ... then an exact haversine cut (cells overshoot the disc).
        ulat, ulon = user_point.lat, user_point.lon
        return [
            n
            for n in prefiltered
            if haversine_km_coords(ulat, ulon, n.lat, n.lon) <= radius_km
        ]


#: Score bonus (in free-core units) for sharing the user's ISP tag.
AFFILIATION_BONUS = 2.0
#: Score penalty per km of distance (free-core units). Small by design:
#: the manager nudges toward nearby nodes but lets availability dominate.
DISTANCE_PENALTY_PER_KM = 0.02
#: Relative bound on the rounding error of an exact score (two float64
#: operations: ~1e-16; six orders of magnitude of slack).
SCORE_ROUNDING = 1e-9
#: Distances :func:`key_distance_km` remembers. A remembered query
#: needs one per member of its shortlist (TopN plus the few candidates
#: inside the shortlist's reach, under 8 at metro density), and an index
#: remembers at most 4 096 queries (``MEMO_ELEMENTS >> 6``): 8 x 4 096.
#: ~210 bytes an entry by tracemalloc: ~7 MB when full.
DISTANCE_MEMO = 1 << 15

#: The exact sort key's haversine, memoised by its four doubles: the
#: same float comes back, so a remembered distance ranks exactly as a
#: fresh one. Users re-discover from where they stand and nodes report
#: from where they stand, so a standing query scores the same (user,
#: node) pairs every time, and a cross-shard merge re-scores the pairs
#: its shards just scored.
key_distance_km = lru_cache(maxsize=DISTANCE_MEMO)(haversine_km_coords)


def availability_sort_key(
    query: DiscoveryQuery,
) -> Callable[[NodeStatus], Tuple[float, str]]:
    """Weighted-score sort key prioritizing candidates for a user.

    Combines the paper's three global-selection signals — resource
    availability, network affiliation, geo-proximity — into one score
    (higher is better)::

        score = free_cores + AFFILIATION_BONUS·same_isp
                − DISTANCE_PENALTY_PER_KM·distance

    A *weighted* blend matters: a lexicographic affiliation-first order
    would hand every user a candidate list of only its same-ISP
    volunteers, hiding well-provisioned dedicated nodes entirely once
    ``TopN`` is small. Coarse mis-scoring is fine (clients probe), but
    systematically excluding a node class is not. Node id breaks ties so
    the ordering is deterministic.
    """

    ulat, ulon = query.lat, query.lon
    user_isp = query.isp

    def key(node: NodeStatus) -> Tuple[float, str]:
        score = node.availability_score
        if user_isp is not None and node.isp == user_isp:
            score += AFFILIATION_BONUS
        score -= DISTANCE_PENALTY_PER_KM * key_distance_km(
            ulat, ulon, node.lat, node.lon
        )
        return (-score, node.node_id)

    return key


@dataclass
class GlobalSelectionPolicy:
    """The composed manager-side policy: filter, sort, truncate to TopN.

    Filters and the sort key are injectable so applications can "flexibly
    combine/modify [policies] to prioritize available edge nodes towards
    different application requirements" (§IV-B).
    """

    geo_filter: GeoProximityFilter = GeoProximityFilter()
    sort_key_factory: Callable[
        [DiscoveryQuery], Callable[[NodeStatus], Any]
    ] = availability_sort_key
    #: Optional extra predicate, e.g. "dedicated nodes only".
    node_predicate: Optional[Callable[[NodeStatus], bool]] = None

    def select(
        self,
        query: DiscoveryQuery,
        nodes: Optional[Sequence[NodeStatus]] = None,
        *,
        index: Optional[GeohashSpatialIndex[NodeStatus]] = None,
    ) -> Tuple[List[str], bool]:
        """Produce the TopN candidate node ids for ``query``.

        Candidates come either from ``nodes`` (a materialized status
        list, linearly scanned — the seed behaviour, still used by
        baselines and as the parity reference) or from ``index`` (the
        manager's spatial index; the metro-scale fast path). Exactly one
        source must be given. Both sources produce bit-identical results
        for the same registry contents: the indexed path only *proposes*
        with vector arithmetic — membership and order are decided by the
        same scalar haversine cut and the same total-order sort key
        (which breaks ties by node id).

        Returns:
            (node id list, widened flag). The list may be shorter than
            TopN when the system simply has fewer nodes.
        """
        if (nodes is None) == (index is None):
            raise TypeError("select() needs exactly one of `nodes` or `index`")
        if index is not None:
            geo = self.geo_filter
            radius_km, widened = geo.radius_km, False
            slots = self._in_radius(query, index, radius_km)
            if slots.size < query.top_n:  # GeoProximityFilter.apply's rule
                wide = self._in_radius(query, index, geo.wide_radius_km)
                if wide.size > slots.size:
                    slots = wide
                    radius_km, widened = geo.wide_radius_km, True
            best = self._rank(query, index, slots, radius_km)
            return [n.node_id for n in best], widened
        assert nodes is not None
        pool = [n for n in nodes if n.node_id not in query.exclude]
        if self.node_predicate is not None:
            pool = [n for n in pool if self.node_predicate(n)]
        candidates, widened = self.geo_filter.apply(
            query.point, pool, min_candidates=query.top_n
        )
        # nsmallest(k) is documented to equal sorted(...)[:k]; with the
        # node-id tie-breaker in the key the TopN is deterministic and
        # independent of candidate order, at O(C log k) instead of a
        # full O(C log C) sort.
        best = heapq.nsmallest(
            query.top_n, candidates, key=self.sort_key_factory(query)
        )
        return [n.node_id for n in best], widened

    def select_partial(
        self,
        query: DiscoveryQuery,
        *,
        index: GeohashSpatialIndex[NodeStatus],
        radius_km: float,
    ) -> Tuple[int, List[NodeStatus]]:
        """One shard's answer to one fixed-radius discovery phase.

        Returns ``(count, local TopN statuses)`` where ``count`` is the
        exact number of in-radius candidates. The cross-shard merge in
        ``repro.controlplane.router`` is bit-identical to :meth:`select`
        because (a) summed counts replay the widening comparisons
        exactly, and (b) any member of the global TopN is beaten by
        fewer than TopN candidates globally — hence by fewer than TopN
        within its own shard — so it appears in its shard's local TopN.
        """
        slots = self._in_radius(query, index, radius_km)
        return len(slots), self._rank(query, index, slots, radius_km)

    def _in_radius(
        self, query: DiscoveryQuery, index: GeohashSpatialIndex[NodeStatus], radius_km: float
    ) -> SlotArray:
        """The query's candidates at one fixed radius."""
        return self.geo_filter.within_indexed(
            query.point, index, radius_km,
            exclude=query.exclude, predicate=self.node_predicate,
        )

    def _rank(
        self,
        query: DiscoveryQuery,
        index: GeohashSpatialIndex[NodeStatus],
        slots: SlotArray,
        radius_km: float,
    ) -> List[NodeStatus]:
        """The TopN of the in-radius ``slots``, by the exact sort key.

        The order is whatever ``sort_key_factory(query)`` and
        ``heapq.nsmallest`` say; the availability column only shrinks
        the set they look at. For :func:`availability_sort_key` a
        candidate's exact score ``e`` is its availability ``a`` (never
        negative), plus the bonus if it shares the user's ISP, minus a
        distance penalty of at most ``P = DISTANCE_PENALTY_PER_KM·radius_km``:
        the slots were cut by the very haversine the key reads. The
        shortlist is every candidate with ``a ≥ V − P − bonus − 2ρ``,
        ``V`` being the N-th largest ``a`` and
        ``ρ = SCORE_ROUNDING·max(1, |V| + bonus + P)`` a bound on the
        rounding of a score no larger than ``V + bonus``. It contains
        the exact TopN:

        1. at least N candidates have ``a ≥ V``; the score arithmetic
           is monotone in ``a``, so each has ``e ≥ V − P − ρ``, and the
           N-th largest exact score ``E`` is at least ``V − P − ρ``;
        2. a TopN member has ``e ≥ E`` (ties are broken by id, below it);
        3. so one with ``a < V`` has ``a ≥ e − bonus − ρ ≥
           V − P − bonus − 2ρ``.

        ``bonus`` is 0 for a query without an ISP. A floor that is not
        finite (``V`` infinite) shortlists nothing away, and any other
        key factory has no column form: both rank the full in-radius set.
        """
        top_n = query.top_n
        if self.sort_key_factory is availability_sort_key and slots.size > top_n > 0:
            available = index.column("availability_score")[slots]
            nth_best = float(
                np.partition(available, slots.size - top_n)[slots.size - top_n]
            )
            reach = DISTANCE_PENALTY_PER_KM * radius_km + (
                AFFILIATION_BONUS if query.isp is not None else 0.0
            )
            floor = nth_best - reach - 2.0 * SCORE_ROUNDING * max(
                1.0, abs(nth_best) + reach
            )
            if math.isfinite(floor):
                slots = slots[available >= floor]
        return heapq.nsmallest(
            top_n,
            [index.status_at(slot) for slot in slots.tolist()],
            key=self.sort_key_factory(query),
        )
