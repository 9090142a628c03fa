"""Geohash-range shard map: registry ownership by cell prefix.

A :class:`ShardMap` partitions the ``5 * precision``-bit integer cell
space of :mod:`repro.geo.geohash` into ``count`` contiguous ranges.
Every node's geohash (precision 9 on both backends) truncates to a
``precision``-character prefix whose uint64 cell id picks exactly one
owning shard; discovery covering cells — integer ids too — map by a
shift and a ``bisect`` to the (usually one, near a boundary several)
shards whose ranges they intersect.

Range partitioning over the interleaved cell id is deliberately simple:
ownership is a pure function of the map (no directory service), a map
is fully described by ``(count, precision)``, and geohash prefix
adjacency means a metro's nodes concentrate in few ranges — the
cross-shard fraction of discovery queries stays small (measured by
``bench_discovery_sharded.py``). A control plane keeps one map for its
whole life: the partition is fixed when the manager or cluster is built.

Because a map is just ``(count, precision)``, the two answers a router
needs per message are pure functions of plain values, and memoised as
such: :func:`owner_of_prefix` (a heartbeat's owner) and
:func:`disc_owners` (a discovery phase's plan). Nodes re-report from
where they stand and users re-discover from where they stand, so both
see the same few inputs again and again; the same ints come back.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Tuple

from repro.geo import geohash as gh

__all__ = ["DEFAULT_SHARD_PRECISION", "ShardMap", "disc_owners", "owner_of_prefix"]

#: Prefix length (geohash characters) at which ownership is decided.
#: Precision 4 cells are ~39x20 km: a metro region spans several, so
#: sharding actually spreads load, while covering cells for typical
#: discovery radii (a few km) are finer and map to single owners.
DEFAULT_SHARD_PRECISION = 4


#: Plans :func:`disc_owners` remembers: one per remembered query's (map,
#: point, radius), as many as :func:`repro.geo.geohash.cover` remembers
#: covers — a plan is the owners of one cover. ~230 bytes an entry by
#: tracemalloc (key, link, a tuple of a few ints): ~1 MB when full.
PLAN_MEMO = 4096
#: Owners :func:`owner_of_prefix` remembers: one per (map, shard-precision
#: cell holding a node). 1 024 cells of ~39x20 km at the default
#: precision outsize any metro's registry; ~0.2 MB when full.
OWNER_MEMO = 1024


def _owner_of_cell(count: int, precision: int, cell: int) -> int:
    """The shard whose range holds ``cell``: the largest ``i`` with
    ``i * space // count <= cell``, which is ``((cell + 1) * count - 1)
    // space`` in closed form (``space = 32**precision``)."""
    if not 0 <= cell < 1 << 5 * precision:
        raise ValueError(f"cell {cell} out of range for precision {precision}")
    return ((cell + 1) * count - 1) >> 5 * precision


def _owner_of_geohash(count: int, precision: int, geohash: str) -> int:
    if len(geohash) < precision:
        raise ValueError(
            f"geohash {geohash!r} is coarser than shard precision "
            f"{precision}; it has no single owner"
        )
    return _owner_of_cell(count, precision, gh.geohash_to_cell(geohash[:precision]))


def _owners_of_cells(
    count: int, shard_precision: int, precision: int, cells: Iterable[int]
) -> Tuple[int, ...]:
    shift = 5 * (precision - shard_precision)
    if shift >= 0:
        return tuple(sorted({
            _owner_of_cell(count, shard_precision, ancestor)
            for ancestor in {cell >> shift for cell in cells}
        }))
    owners = set()
    for cell in cells:
        first = _owner_of_cell(count, shard_precision, cell << -shift)
        last = _owner_of_cell(count, shard_precision, ((cell + 1) << -shift) - 1)
        owners.update(range(first, last + 1))
    return tuple(sorted(owners))


#: ``ShardMap(count, precision).owner_of_geohash(prefix)``, memoised: a
#: router passes a node's geohash cut to the shard precision, so one
#: entry serves every node of a cell. Errors are raised, not remembered.
owner_of_prefix = lru_cache(maxsize=OWNER_MEMO)(_owner_of_geohash)


@lru_cache(maxsize=PLAN_MEMO)
def disc_owners(
    count: int, precision: int, lat: float, lon: float, radius_km: float
) -> Tuple[int, ...]:
    """``ShardMap(count, precision).owners_of_cells(*cover(lat, lon,
    radius_km))``, memoised: the shards one discovery phase must ask."""
    return _owners_of_cells(count, precision, *gh.cover(lat, lon, radius_km))


@dataclass(frozen=True)
class ShardMap:
    """Partition of the geohash cell space into shard ranges.

    Shard ``i`` owns cells ``[starts[i], starts[i+1])`` where the
    starts split ``[0, 32**precision)`` as evenly as integer division
    allows: ``starts[i] = i * 32**precision // count``.
    """

    count: int
    precision: int = DEFAULT_SHARD_PRECISION

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"shard count must be >= 1, got {self.count}")
        if not 1 <= self.precision <= 12:
            raise ValueError(f"precision must be in 1..12, got {self.precision}")
        space = self.cell_space
        if self.count > space:
            raise ValueError(
                f"cannot split {space} cells into {self.count} shards"
            )

    @property
    def cell_space(self) -> int:
        """Number of distinct cells at this precision (``32**precision``)."""
        return 1 << (5 * self.precision)

    # ------------------------------------------------------------------
    # Ownership
    # ------------------------------------------------------------------
    def owner_of_cell(self, cell: int) -> int:
        """Shard index owning an integer cell id at this precision."""
        return _owner_of_cell(self.count, self.precision, cell)

    def owner_of_geohash(self, geohash: str) -> int:
        """Shard index owning a geohash at least ``precision`` chars long.

        This is heartbeat routing: node geohashes (precision 9) always
        satisfy the length requirement; a coarser hash spans several
        shards and has no single owner.
        """
        return _owner_of_geohash(self.count, self.precision, geohash)

    def owners_of_cells(self, precision: int, cells: Iterable[int]) -> Tuple[int, ...]:
        """Sorted, deduplicated shard fan-out for covering cells.

        ``cells`` are integer cell ids at ``precision`` (what
        :func:`repro.geo.geohash.cover` returns). A cell finer than (or
        equal to) the shard precision has exactly one owner, that of its
        ancestor ``cell >> 5 * levels``; a coarser cell spans the
        contiguous range of its descendants and may touch several shards.
        """
        return _owners_of_cells(self.count, self.precision, precision, cells)

    def shard_range(self, shard: int) -> Tuple[int, int]:
        """Half-open ``[lo, hi)`` cell range owned by ``shard``."""
        if not 0 <= shard < self.count:
            raise ValueError(f"shard {shard} out of range 0..{self.count - 1}")
        space = self.cell_space
        return shard * space // self.count, (shard + 1) * space // self.count
