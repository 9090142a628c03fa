"""Columnar geohash-bucketed spatial index for the Central Manager's registry.

The paper's global selection geo-filters candidates by GeoHash cell
prefix (§IV-B); as a registry scan that is O(N) per query, the gating
cost of client-centric selection at metro scale (cf. Renau & Ullah,
arXiv:2510.08228, and Burbano et al., arXiv:2511.10146).
:class:`GeohashSpatialIndex` files every node once, in the bucket of its
``max_precision`` cell (its *leaf*); each coarser cell lists the
non-empty leaves under it. A proximity query — a handful of
same-precision covering cells — is then a handful of dict lookups
touching only the nodes inside those cells, and an insert, update or
removal touches one leaf, plus the ``max_precision - 1`` coarser lists
when that leaf appears or empties: the index is maintained on every
heartbeat and expiry, never rebuilt.

Buckets are keyed by integer: the cell id of :mod:`repro.geo.geohash`
under a sentinel bit that carries the depth, ``(1 << 5*depth) | cell``,
so a parent's key is ``key >> 5`` and the cover of a query disc
(:func:`~repro.geo.geohash.cover`, integer cell ids) reaches its buckets
by a shift and an OR. Geohash *strings* are parsed where they enter:
once per :meth:`insert` that changes a node's hash.

Storage is columnar. Every node owns a *slot*; ``slot -> status`` is a
list (and :class:`StatusView` reads it as the registry's
``node_id -> status`` mapping), each queried cell caches its members'
slots as an integer array (a coarser cell's read off its leaves, leaf
by leaf), dropped only when a member of the cell joins, leaves or moves
(a same-place heartbeat refresh touches no bucket), and per-slot
float64 columns hold the haversine operands (``lat_rad``, ``lon_rad``,
``cos_lat``) plus any status attribute a ranking policy asks for
through :meth:`column`. :meth:`within_cover` cuts all cell candidates
against the query disc in one numpy pass instead of one Python
``haversine`` call per candidate.

**Propose / decide.** numpy's ``sin``/``arcsin`` may differ from
``math``'s by an ulp, so a vector distance never decides membership on
its own: :meth:`within_cover` trusts it only outside a guard band
around the radius and re-decides everything inside the band with the
scalar :func:`~repro.geo.point.haversine_km_coords`. The returned set is
therefore exactly the set a linear scan with the scalar cut returns.

**Static / dynamic.** Which nodes lie inside a disc changes only when a
node of a covered cell joins, leaves or moves; what a heartbeat changes
is read by the ranking, not by the cut. So
:meth:`within_cover` remembers its answer per ``(lat, lon, radius_km)``
next to the cell arrays it was cut from, and a user re-discovering
from where it stands gets the same slot array back while each of
those cells still holds the very array it was cut from. Every
membership or position change drops the arrays of the leaf's whole
ancestor chain, so identity *is* validity: no clock, no generation
counter (DESIGN.md §5a).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from itertools import chain
from typing import (
    Dict,
    Generic,
    Iterator,
    List,
    Mapping,
    Optional,
    Protocol,
    Set,
    Tuple,
    TypeVar,
    ValuesView,
    cast,
)

import numpy as np
import numpy.typing as npt

from repro.geo import geohash as gh
from repro.geo.point import EARTH_RADIUS_KM, haversine_km_coords


class Located(Protocol):
    """Anything placeable in the index: an id, a geohash and coordinates.

    The Central Manager indexes
    :class:`~repro.messages.NodeStatus` objects; the index itself
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
#: realistic discovery radius; a cover at a deeper precision is
#: truncated to it (see :meth:`GeohashSpatialIndex.within_cover`).
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

#: What one index's cut memo may hold, in elements: an in-radius node of
#: a remembered cut is one (its slot, 8 bytes) and every remembered
#: query ``_MEMO_KEY`` more, for its key and object headers — 2 MiB of
#: arrays at most, 4 096 queries at most, one-off queries bounded like
#: any other. A cut longer than 1/64 of the budget (a wide fallback over
#: a dense registry) is answered and not kept.
MEMO_ELEMENTS = 1 << 18
_MEMO_KEY = 64

_NO_SLOTS: SlotArray = np.empty(0, dtype=np.intp)
_NO_FLOATS: FloatArray = np.empty(0, dtype=np.float64)
_NO_SLOTS.flags.writeable = _NO_FLOATS.flags.writeable = False

#: A remembered cut: each covered bucket with the slot array it was cut
#: from (``None``: the cell was empty), then the answer.
_Cut = Tuple[Tuple[Tuple[int, Optional[SlotArray]], ...], SlotArray]
#: A query seen once stores its key, not its array: it holds this cut,
#: which is never valid (no bucket has key 0).
_SEEN_ONCE: _Cut = (((0, _NO_SLOTS),), _NO_SLOTS)


def distance_guard_km(radius_km: float) -> float:
    """Bound on ``|vector − scalar|`` distance for nodes within ``radius_km``."""
    return DISTANCE_GUARD * max(1.0, radius_km)


class GeohashSpatialIndex(Generic[S]):
    """Incrementally-maintained geohash cell buckets over node statuses.

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
        "_leaves",
        "_under",
        "_bucket_slots",
        "_synced",
        "_stale",
        "_lat_rad",
        "_lon_rad",
        "_cos_lat",
        "_columns",
        "_memo",
        "_memo_held",
        "cuts_remembered",
        "cuts_computed",
    )

    def __init__(self, max_precision: int = DEFAULT_MAX_PRECISION) -> None:
        if max_precision < 1:
            raise ValueError(f"max_precision must be >= 1, got {max_precision}")
        self.max_precision = max_precision
        #: node_id -> slot. Slots of removed nodes are reused (LIFO), so
        #: the columns stay as long as the registry's high-water mark.
        self._slot_of: Dict[str, int] = {}
        #: slot -> latest status (``None`` while the slot is free). A
        #: node's leaf is ``_bucket_key(status.geohash)``.
        self._status_at: List[Optional[S]] = []
        self._free: List[int] = []
        #: leaf key (depth ``max_precision``) -> the slots of the nodes
        #: inside that cell, the only place a node is filed (its slot,
        #: so an array is built without a lookup per member).
        #: Dict-as-ordered-set: iteration follows insertion order, so
        #: query results are deterministic.
        self._leaves: Dict[int, Dict[int, None]] = {}
        #: coarser key (depth 1..max_precision-1) -> the non-empty leaf
        #: keys under it, in order of appearance.
        self._under: Dict[int, Dict[int, None]] = {}
        #: key (any depth) -> its cell's slots as an array, built by the
        #: first query after a member joined, left or moved.
        self._bucket_slots: Dict[int, SlotArray] = {}
        #: Column bookkeeping. ``insert`` does no numeric work (filling
        #: a registry costs what it did without columns); the next query
        #: brings the columns up to date (see :meth:`_sync`): slots from
        #: ``_synced`` up have never been written, ``_stale`` holds the
        #: written ones whose status changed since.
        self._synced = 0
        self._stale: Set[int] = set()
        self._lat_rad: FloatArray = _NO_FLOATS
        self._lon_rad: FloatArray = _NO_FLOATS
        self._cos_lat: FloatArray = _NO_FLOATS
        #: status attribute name -> per-slot float64 column of it.
        self._columns: Dict[str, FloatArray] = {}
        #: ``(lat, lon, radius_km)`` -> the cut made for it, first seen
        #: first out (ordered: popping a plain dict's first key scans
        #: its predecessors' holes); each holds ``_MEMO_KEY + len(slots)``.
        self._memo: OrderedDict[Tuple[float, float, float], _Cut] = OrderedDict()
        self._memo_held = 0
        #: :meth:`within_cover` calls answered from the memo / by a cut.
        self.cuts_remembered = 0
        self.cuts_computed = 0

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _bucket_key(self, geohash: str) -> int:
        """The deepest bucket a geohash (of any length >= 1) falls in."""
        depth = min(len(geohash), self.max_precision)
        return 1 << 5 * depth | gh.geohash_to_cell(geohash[:depth])

    def _position_key(self, status: S) -> int:
        """The ``max_precision`` bucket of a status that has one."""
        geohash = status.geohash
        if len(geohash) < self.max_precision:
            raise ValueError(
                f"geohash {geohash!r} of {status.node_id!r} is coarser than "
                f"index precision {self.max_precision}; it has no single cell"
            )
        if geohash != geohash.lower():
            # The linear reference compares prefixes with the cover's
            # lower-case cells and would never match it; nor may the
            # index, which parses letters in either case.
            raise ValueError(
                f"geohash {geohash!r} of {status.node_id!r} is not lower-case"
            )
        return self._bucket_key(geohash)

    def check(self, status: S) -> None:
        """Raise the ``ValueError`` :meth:`insert` would raise for
        ``status`` as a new node; change nothing."""
        self._position_key(status)

    def insert(self, status: S) -> None:
        """Insert or refresh a node's status (handles cell changes).

        Raises:
            ValueError: for a geohash shorter than ``max_precision`` —
                it names an area, not a position, and finer queries
                could never find it — or one that is not a canonical
                geohash (a character outside the alphabet, an
                upper-case letter). The index is left as it was.
        """
        node_id = status.node_id
        slot = self._slot_of.get(node_id)
        if slot is not None:
            old = self._status_at[slot]
            assert old is not None
            # The usual refresh repeats the position: nothing to parse,
            # no bucket touched. A move is a re-bucket even inside its
            # cell — same members, other distances — so that no array a
            # remembered cut was made from outlives it.
            if (
                old.geohash != status.geohash
                or old.lat != status.lat
                or old.lon != status.lon
            ):
                key = self._position_key(status)
                self._unbucket(slot, self._bucket_key(old.geohash))
                self._bucket(slot, key)
            self._status_at[slot] = status
            self._stale.add(slot)
            return
        key = self._position_key(status)
        if self._free:
            slot = self._free.pop()
            self._stale.add(slot)
        else:
            slot = len(self._status_at)
            self._status_at.append(None)
        self._slot_of[node_id] = slot
        self._status_at[slot] = status
        self._bucket(slot, key)

    def _bucket(self, slot: int, key: int) -> None:
        """File ``slot`` in leaf ``key``; list a new leaf under its
        ancestors."""
        members = self._leaves.get(key)
        if members is None:
            members = self._leaves[key] = {}
            under = self._under
            parent = key >> 5
            while parent > 1:
                leaves = under.get(parent)
                if leaves is None:
                    leaves = under[parent] = {}
                leaves[key] = None
                parent >>= 5
        members[slot] = None
        self._drop_arrays(key)

    def remove(self, node_id: str) -> None:
        """Remove a node; a no-op for unknown ids."""
        slot = self._slot_of.pop(node_id, None)
        if slot is None:
            return
        status = self._status_at[slot]
        assert status is not None
        self._unbucket(slot, self._bucket_key(status.geohash))
        self._status_at[slot] = None
        self._free.append(slot)

    def _unbucket(self, slot: int, key: int) -> None:
        """Take ``slot`` out of leaf ``key``; unlist the leaf if it empties."""
        members = self._leaves[key]
        del members[slot]
        if not members:
            del self._leaves[key]
            under = self._under
            parent = key >> 5
            while parent > 1:
                leaves = under[parent]
                del leaves[key]
                if not leaves:
                    del under[parent]
                parent >>= 5
        self._drop_arrays(key)

    def _drop_arrays(self, key: int) -> None:
        """Forget the arrays of leaf ``key`` and of every cell above it."""
        cached = self._bucket_slots
        while key > 1:
            cached.pop(key, None)
            key >>= 5

    def clear(self) -> None:
        self._slot_of.clear()
        self._status_at.clear()
        self._free.clear()
        self._leaves.clear()
        self._under.clear()
        self._bucket_slots.clear()
        self._synced = 0
        self._stale.clear()
        self._lat_rad = self._lon_rad = self._cos_lat = _NO_FLOATS
        self._columns.clear()
        self._memo.clear()
        self._memo_held = 0

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

        Index it with the slots :meth:`within_cover` returns. Built on first
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
    def within_cover(self, lat: float, lon: float, radius_km: float) -> SlotArray:
        """Slots of the nodes within the disc.

        Candidates are the members of the cells of
        :func:`repro.geo.geohash.cover` (deeper than ``max_precision``
        they are truncated to it: a superset). Membership is exactly
        ``haversine_km_coords(lat, lon, node.lat, node.lon) <=
        radius_km``: one numpy haversine over all cell candidates
        proposes, and candidates closer to the radius than
        :func:`distance_guard_km` are decided by the scalar function.
        Never write to the array: from a query's second sight on it is
        kept (and flagged read-only), the same object on every call
        until a covered cell changes.
        """
        memo = self._memo
        memo_key = (lat, lon, radius_km)
        known = memo.get(memo_key)
        if known is not None:
            leaves, under = self._leaves, self._under
            cached = self._bucket_slots
            for key, part in known[0]:
                if cached.get(key) is not part or (
                    part is None and (key in leaves or key in under)
                ):
                    break
            else:
                self.cuts_remembered += 1
                return known[1]
        cut_from, slots = self._cut(lat, lon, radius_km)
        self.cuts_computed += 1
        cut = _SEEN_ONCE
        if known is None:
            held = self._memo_held + _MEMO_KEY
        else:
            if slots.size <= MEMO_ELEMENTS >> 6:
                slots.setflags(write=False)
                cut = (tuple(cut_from.items()), slots)
            held = self._memo_held + cut[1].size - known[1].size
        memo[memo_key] = cut
        while held > MEMO_ELEMENTS:
            held -= _MEMO_KEY + memo.popitem(last=False)[1][1].size
        self._memo_held = held
        return slots

    def _cut(
        self, lat: float, lon: float, radius_km: float
    ) -> Tuple[Dict[int, Optional[SlotArray]], SlotArray]:
        """The covered cells' slot arrays and the exact cut of them."""
        precision, cells = gh.cover(lat, lon, radius_km)
        depth = min(precision, self.max_precision)
        shift = 5 * (precision - depth)
        tag = 1 << 5 * depth
        self._sync()
        # A cell's slots are its leaf's, or its leaves' in turn.
        at_leaf = depth == self.max_precision
        leaves, under = self._leaves, self._under
        cached = self._bucket_slots
        cut_from: Dict[int, Optional[SlotArray]] = {}
        parts: List[SlotArray] = []
        for cell in cells:
            key = tag | cell >> shift
            if key in cut_from:
                continue
            part = cached.get(key)
            if part is None:
                if at_leaf:
                    members = [leaves[key]] if key in leaves else []
                else:
                    members = list(map(leaves.__getitem__, under.get(key, ())))
                if members:
                    part = cached[key] = np.fromiter(
                        chain.from_iterable(members),
                        dtype=np.intp,
                        count=sum(map(len, members)),
                    )
            cut_from[key] = part
            if part is not None:
                parts.append(part)
        if not parts:
            return cut_from, _NO_SLOTS
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
        unsure = np.flatnonzero(keep & (dist > radius_km - guard))
        if unsure.size:
            status_at = self._status_at
            for i in unsure.tolist():
                status = status_at[slots[i]]
                assert status is not None
                keep[i] = (
                    haversine_km_coords(lat, lon, status.lat, status.lon)
                    <= radius_km
                )
        return cut_from, slots[keep]

    def status_at(self, slot: int) -> S:
        """The status occupying ``slot`` (as returned by :meth:`within_cover`)."""
        status = self._status_at[slot]
        assert status is not None
        return status

    def slot_of(self, node_id: str) -> Optional[int]:
        """The slot ``node_id`` occupies, or ``None`` if it is not indexed."""
        return self._slot_of.get(node_id)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._slot_of

    def __len__(self) -> int:
        return len(self._slot_of)

    def __repr__(self) -> str:
        return (
            f"GeohashSpatialIndex(nodes={len(self._slot_of)}, "
            f"leaves={len(self._leaves)}, max_precision={self.max_precision})"
        )


class StatusView(Mapping[str, S]):
    """The index's statuses as a read-only ``node_id -> status`` mapping.

    A view, not a copy: it reads the index's slot table, so it follows
    every ``insert``/``remove``/``clear``. Iteration is in order of first
    insertion (a refresh keeps a node's place, a removal forgets it), and
    :meth:`values` iterates the statuses at C speed, for callers that
    hand the whole population on.
    """

    __slots__ = ("_slot_of", "_status_at")

    def __init__(self, index: GeohashSpatialIndex[S]) -> None:
        self._slot_of = index._slot_of
        self._status_at = index._status_at

    def __getitem__(self, node_id: str) -> S:
        return cast(S, self._status_at[self._slot_of[node_id]])

    def __contains__(self, node_id: object) -> bool:
        return node_id in self._slot_of

    def __iter__(self) -> Iterator[str]:
        return iter(self._slot_of)

    def __len__(self) -> int:
        return len(self._slot_of)

    def values(self) -> ValuesView[S]:
        return _Statuses(self)


class _Statuses(ValuesView[S]):
    """:meth:`StatusView.values`: one ``map`` over the slot table."""

    __slots__ = ("_slot_of", "_status_at")

    def __init__(self, view: StatusView[S]) -> None:
        super().__init__(view)
        self._slot_of = view._slot_of
        self._status_at = view._status_at

    def __iter__(self) -> Iterator[S]:
        return cast(
            Iterator[S], map(self._status_at.__getitem__, self._slot_of.values())
        )


def _grown(column: FloatArray, slots: int) -> FloatArray:
    """``column`` reallocated for ``slots`` entries (amortized doubling)."""
    grown = np.zeros(max(slots, 2 * len(column)), dtype=np.float64)
    grown[: len(column)] = column
    return grown
