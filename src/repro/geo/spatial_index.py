"""Columnar geohash-bucketed spatial index for the Central Manager's registry.

The paper's global selection geo-filters candidates by GeoHash cell
prefix (§IV-B). The seed implementation re-derived that filter from a
full registry scan on every discovery query — O(N) per query, which is
the gating cost of client-centric selection at metro scale (cf. the
candidate-filtering bottlenecks discussed by Renau & Ullah,
arXiv:2510.08228, and Burbano et al., arXiv:2511.10146).

:class:`GeohashSpatialIndex` replaces the scan with cell-prefix buckets:
every indexed node is registered under each prefix of its geohash up to
``max_precision``, so a proximity query — a handful of same-precision
covering cells — is a handful of dict lookups touching only the nodes
inside those cells. Inserts, updates and removals are
O(``max_precision``), so the index is maintained incrementally on every
heartbeat and expiry instead of being rebuilt.

Storage is columnar. Every node owns a *slot*; ``slot -> status`` is a
list, each bucket caches its members' slots as an integer array
(dropped only when that bucket's membership changes — a same-cell
heartbeat refresh touches no bucket), and per-slot float64 columns hold
the haversine operands (``lat_rad``, ``lon_rad``, ``cos_lat``) plus any
status attribute a ranking policy asks for through :meth:`column`.
:meth:`within` cuts all cell candidates against the query disc in one
numpy pass instead of one Python ``haversine`` call per candidate.

**Propose / decide.** numpy's ``sin``/``arcsin`` may differ from
``math``'s by an ulp, so a vector distance never decides membership on
its own: :meth:`within` trusts it only outside a guard band around the
radius and re-decides everything inside the band with the scalar
:func:`~repro.geo.point.haversine_km_coords`. The returned set is
therefore exactly the set a linear scan with the scalar cut returns (a
property the test suite checks on randomized registries and on nodes
placed ulps from the radius).
"""

from __future__ import annotations

import math
from typing import (
    Dict,
    Generic,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

import numpy as np
import numpy.typing as npt

from repro.geo.point import EARTH_RADIUS_KM, haversine_km_coords


class Located(Protocol):
    """Anything placeable in the index: an id, a geohash and coordinates.

    The Central Manager indexes
    :class:`~repro.core.messages.NodeStatus` objects; the index itself
    only reads these fields (keeping :mod:`repro.geo` independent of
    the core message vocabulary).
    """

    # Read-only members: frozen dataclasses (NodeStatus) qualify.
    @property
    def node_id(self) -> str: ...

    @property
    def geohash(self) -> str: ...

    @property
    def lat(self) -> float: ...

    @property
    def lon(self) -> float: ...


S = TypeVar("S", bound=Located)

SlotArray = npt.NDArray[np.intp]
FloatArray = npt.NDArray[np.float64]

#: Bucket depth. Precision 6 cells are ~0.6 km — deeper than any
#: realistic discovery radius; queries at deeper precisions degrade
#: gracefully (see :meth:`GeohashSpatialIndex.query_cells`).
DEFAULT_MAX_PRECISION = 6

#: Half-width of the band around the radius, relative to
#: ``max(1 km, radius)``, inside which the vector distance is not
#: trusted. With identical operands the vector and scalar haversine
#: differ by a few ulp of ``h`` — ~1e-15 relative in the distance,
#: except within ~100 km of the antipode, where ``asin`` amplifies it to
#: at most ~6e-4 km (and a radius that large gets a 2e-2 km band). Six
#: orders of magnitude of slack, and at 4 km the band is 4 mm wide: a
#: node lands in it about once per thousand metro-density queries.
DISTANCE_GUARD = 1e-6

_NO_SLOTS: SlotArray = np.empty(0, dtype=np.intp)
_NO_DISTANCES: FloatArray = np.empty(0, dtype=np.float64)


def distance_guard_km(radius_km: float) -> float:
    """Bound on ``|vector − scalar|`` distance for nodes within ``radius_km``."""
    return DISTANCE_GUARD * max(1.0, radius_km)


class GeohashSpatialIndex(Generic[S]):
    """Incrementally-maintained geohash prefix buckets over node statuses.

    Args:
        max_precision: deepest prefix length bucketed. Queries at coarser
            or equal precision are direct bucket hits; deeper queries are
            truncated to ``max_precision`` (a superset, still corrected
            by the exact distance cut).
    """

    __slots__ = (
        "max_precision",
        "_slot_of",
        "_status_at",
        "_free",
        "_buckets",
        "_bucket_slots",
        "_synced",
        "_stale",
        "_lat_rad",
        "_lon_rad",
        "_cos_lat",
        "_columns",
    )

    def __init__(self, max_precision: int = DEFAULT_MAX_PRECISION) -> None:
        if max_precision < 1:
            raise ValueError(f"max_precision must be >= 1, got {max_precision}")
        self.max_precision = max_precision
        #: node_id -> slot. Slots of removed nodes are reused (LIFO), so
        #: the columns stay as long as the registry's high-water mark.
        self._slot_of: Dict[str, int] = {}
        #: slot -> latest status (``None`` while the slot is free). A
        #: node's bucketed cell is ``status.geohash[:max_precision]``.
        self._status_at: List[Optional[S]] = []
        self._free: List[int] = []
        #: geohash prefix (len 1..max_precision) -> ids inside that cell.
        #: Dict-as-ordered-set: iteration follows insertion order, so
        #: query results are deterministic across processes (a plain
        #: set of strings would not be, under hash randomization).
        self._buckets: Dict[str, Dict[str, None]] = {}
        #: prefix -> its bucket's slots as an array, built by the first
        #: query after the bucket's membership changed.
        self._bucket_slots: Dict[str, SlotArray] = {}
        #: Column bookkeeping. ``insert`` does no numeric work (filling
        #: a registry costs what it did without columns); the next query
        #: brings the columns up to date (see :meth:`_sync`): slots from
        #: ``_synced`` up have never been written, ``_stale`` holds the
        #: written ones whose status changed since.
        self._synced = 0
        self._stale: Set[int] = set()
        self._lat_rad: FloatArray = _NO_DISTANCES
        self._lon_rad: FloatArray = _NO_DISTANCES
        self._cos_lat: FloatArray = _NO_DISTANCES
        #: status attribute name -> per-slot float64 column of it.
        self._columns: Dict[str, FloatArray] = {}

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def insert(self, status: S) -> None:
        """Insert or refresh a node's status (handles cell changes).

        Raises:
            ValueError: for a geohash shorter than ``max_precision`` —
                it names an area, not a position, and finer queries
                could never find it.
        """
        node_id = status.node_id
        cell = status.geohash[: self.max_precision]
        slot = self._slot_of.get(node_id)
        if slot is not None:
            old = self._status_at[slot]
            assert old is not None
            old_cell = old.geohash[: self.max_precision]
            if old_cell == cell:
                self._status_at[slot] = status
                self._stale.add(slot)
                return
        if len(cell) < self.max_precision:
            raise ValueError(
                f"geohash {status.geohash!r} of {node_id!r} is coarser than "
                f"index precision {self.max_precision}; it has no single cell"
            )
        if slot is not None:
            self._unbucket(node_id, old_cell)
            self._stale.add(slot)
        elif self._free:
            slot = self._free.pop()
            self._slot_of[node_id] = slot
            self._stale.add(slot)
        else:
            slot = len(self._status_at)
            self._status_at.append(None)
            self._slot_of[node_id] = slot
        self._status_at[slot] = status
        buckets = self._buckets
        cached = self._bucket_slots
        for depth in range(1, len(cell) + 1):
            prefix = cell[:depth]
            members = buckets.get(prefix)
            if members is None:
                buckets[prefix] = {node_id: None}
            else:
                members[node_id] = None
                if prefix in cached:
                    del cached[prefix]

    def remove(self, node_id: str) -> None:
        """Remove a node; a no-op for unknown ids."""
        slot = self._slot_of.pop(node_id, None)
        if slot is None:
            return
        status = self._status_at[slot]
        assert status is not None
        self._unbucket(node_id, status.geohash[: self.max_precision])
        self._status_at[slot] = None
        self._free.append(slot)

    def _unbucket(self, node_id: str, cell: str) -> None:
        buckets = self._buckets
        cached = self._bucket_slots
        for depth in range(1, len(cell) + 1):
            prefix = cell[:depth]
            members = buckets[prefix]
            del members[node_id]
            if not members:
                del buckets[prefix]
            cached.pop(prefix, None)

    def clear(self) -> None:
        self._slot_of.clear()
        self._status_at.clear()
        self._free.clear()
        self._buckets.clear()
        self._bucket_slots.clear()
        self._synced = 0
        self._stale.clear()
        self._lat_rad = self._lon_rad = self._cos_lat = _NO_DISTANCES
        self._columns.clear()

    # ------------------------------------------------------------------
    # Columns
    # ------------------------------------------------------------------
    def _sync(self) -> None:
        """Bring the per-slot columns up to date with the statuses.

        Geometry is written with ``math.*`` — the very doubles
        :func:`haversine_km_coords` derives from the same status — so
        the vector and scalar formulas differ only in ``sin``/``asin``.
        """
        status_at = self._status_at
        slots = len(status_at)
        if not self._stale and self._synced == slots:
            return
        if slots > len(self._lat_rad):
            self._lat_rad = _grown(self._lat_rad, slots)
            self._lon_rad = _grown(self._lon_rad, slots)
            self._cos_lat = _grown(self._cos_lat, slots)
            for name, column in self._columns.items():
                self._columns[name] = _grown(column, slots)
        lat_rad, lon_rad, cos_lat = self._lat_rad, self._lon_rad, self._cos_lat
        columns = list(self._columns.items())
        for pending in (self._stale, range(self._synced, slots)):
            for slot in pending:
                status = status_at[slot]
                if status is None:  # freed since it was marked
                    continue
                lat = math.radians(status.lat)
                lat_rad[slot] = lat
                lon_rad[slot] = math.radians(status.lon)
                cos_lat[slot] = math.cos(lat)
                for name, column in columns:
                    column[slot] = getattr(status, name)
        self._stale.clear()
        self._synced = slots

    def column(self, name: str) -> FloatArray:
        """Per-slot float64 column of the status attribute ``name``.

        Index it with the slots :meth:`within` returns. Built on first
        request, then kept current like the geometry columns; the array
        is only valid until the next ``insert``/``remove``/``clear``.
        """
        self._sync()
        column = self._columns.get(name)
        if column is None:
            column = np.zeros(len(self._lat_rad), dtype=np.float64)
            for slot in self._slot_of.values():
                column[slot] = getattr(self._status_at[slot], name)
            self._columns[name] = column
        return column

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _cell_prefixes(self, cells: Sequence[str]) -> List[str]:
        """Distinct occupied bucket prefixes for same-precision cells."""
        buckets = self._buckets
        seen: Set[str] = set()
        out: List[str] = []
        for cell in cells:
            prefix = cell[: self.max_precision]
            if prefix not in seen:
                seen.add(prefix)
                if prefix in buckets:
                    out.append(prefix)
        return out

    def query_cells(self, cells: Sequence[str]) -> List[S]:
        """Statuses of every node inside the given same-precision cells.

        Cells deeper than ``max_precision`` are truncated to it; since a
        parent cell contains all its children this only widens the
        candidate set, never narrows it. Duplicate cells (possible after
        truncation, or near the poles) are collapsed.
        """
        slot_of = self._slot_of
        status_at = self._status_at
        out: List[S] = []
        for prefix in self._cell_prefixes(cells):
            for node_id in self._buckets[prefix]:
                status = status_at[slot_of[node_id]]
                assert status is not None
                out.append(status)
        return out

    def within(
        self, lat: float, lon: float, radius_km: float, cells: Sequence[str]
    ) -> Tuple[SlotArray, FloatArray]:
        """Slots (and distances) of the nodes in ``cells`` within the disc.

        Membership is exactly ``haversine_km_coords(lat, lon, node.lat,
        node.lon) <= radius_km`` for every node in ``cells`` (which must
        cover the disc for the answer to be the whole disc): one numpy
        haversine over all cell candidates proposes, and candidates
        closer to the radius than :func:`distance_guard_km` are decided
        by the scalar function. The returned ``dist_km`` are the vector
        distances — within the guard of the scalar ones, good for
        shortlisting, never for a final order.
        """
        self._sync()
        cached = self._bucket_slots
        parts: List[SlotArray] = []
        for prefix in self._cell_prefixes(cells):
            part = cached.get(prefix)
            if part is None:
                members = self._buckets[prefix]
                part = cached[prefix] = np.fromiter(
                    map(self._slot_of.__getitem__, members),
                    dtype=np.intp,
                    count=len(members),
                )
            parts.append(part)
        if not parts:
            return _NO_SLOTS, _NO_DISTANCES
        slots = parts[0] if len(parts) == 1 else np.concatenate(parts)
        # Operation for operation the scalar formula, on the same doubles.
        lat1, lon1 = math.radians(lat), math.radians(lon)
        dlat = self._lat_rad[slots] - lat1
        dlon = self._lon_rad[slots] - lon1
        h = (
            np.sin(dlat / 2.0) ** 2
            + math.cos(lat1) * self._cos_lat[slots] * np.sin(dlon / 2.0) ** 2
        )
        dist = 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(h)))
        guard = distance_guard_km(radius_km)
        # NaN coordinates compare False here exactly as in the scalar cut.
        keep = dist <= radius_km + guard
        slots, dist = slots[keep], dist[keep]
        unsure = np.flatnonzero(dist > radius_km - guard)
        if unsure.size:
            status_at = self._status_at
            inside = np.ones(slots.size, dtype=np.bool_)
            for i in unsure.tolist():
                status = status_at[slots[i]]
                assert status is not None
                inside[i] = (
                    haversine_km_coords(lat, lon, status.lat, status.lon)
                    <= radius_km
                )
            slots, dist = slots[inside], dist[inside]
        return slots, dist

    def status_at(self, slot: int) -> S:
        """The status occupying ``slot`` (as returned by :meth:`within`)."""
        status = self._status_at[slot]
        assert status is not None
        return status

    def slot_of(self, node_id: str) -> Optional[int]:
        """The slot ``node_id`` occupies, or ``None`` if it is not indexed."""
        return self._slot_of.get(node_id)

    def statuses(self) -> Iterable[S]:
        """All indexed statuses (no particular order)."""
        return [status for status in self._status_at if status is not None]

    def node_ids(self) -> List[str]:
        return list(self._slot_of)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._slot_of

    def __len__(self) -> int:
        return len(self._slot_of)

    def __repr__(self) -> str:
        return (
            f"GeohashSpatialIndex(nodes={len(self._slot_of)}, "
            f"buckets={len(self._buckets)}, max_precision={self.max_precision})"
        )


def _grown(column: FloatArray, slots: int) -> FloatArray:
    """``column`` reallocated for ``slots`` entries (amortized doubling)."""
    grown = np.zeros(max(slots, 2 * len(column)), dtype=np.float64)
    grown[: len(column)] = column
    return grown
