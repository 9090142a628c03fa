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
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Tuple

from repro.geo import geohash as gh

__all__ = ["DEFAULT_SHARD_PRECISION", "ShardMap"]

#: Prefix length (geohash characters) at which ownership is decided.
#: Precision 4 cells are ~39x20 km: a metro region spans several, so
#: sharding actually spreads load, while covering cells for typical
#: discovery radii (a few km) are finer and map to single owners.
DEFAULT_SHARD_PRECISION = 4


@dataclass(frozen=True)
class ShardMap:
    """Partition of the geohash cell space into shard ranges.

    Shard ``i`` owns cells ``[starts[i], starts[i+1])`` where the
    starts split ``[0, 32**precision)`` as evenly as integer division
    allows.
    """

    count: int
    precision: int = DEFAULT_SHARD_PRECISION
    _starts: Tuple[int, ...] = field(init=False, repr=False, compare=False)

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
        starts = tuple((i * space) // self.count for i in range(self.count))
        object.__setattr__(self, "_starts", starts)

    @property
    def cell_space(self) -> int:
        """Number of distinct cells at this precision (``32**precision``)."""
        return 1 << (5 * self.precision)

    # ------------------------------------------------------------------
    # Ownership
    # ------------------------------------------------------------------
    def owner_of_cell(self, cell: int) -> int:
        """Shard index owning an integer cell id at this precision."""
        if not 0 <= cell < self.cell_space:
            raise ValueError(f"cell {cell} out of range for precision {self.precision}")
        return bisect_right(self._starts, cell) - 1

    def owner_of_geohash(self, geohash: str) -> int:
        """Shard index owning a geohash at least ``precision`` chars long.

        This is heartbeat routing: node geohashes (precision 9) always
        satisfy the length requirement; a coarser hash spans several
        shards and has no single owner.
        """
        if len(geohash) < self.precision:
            raise ValueError(
                f"geohash {geohash!r} is coarser than shard precision "
                f"{self.precision}; it has no single owner"
            )
        return self.owner_of_cell(gh.geohash_to_cell(geohash[: self.precision]))

    def owners_of_cells(self, precision: int, cells: Iterable[int]) -> Tuple[int, ...]:
        """Sorted, deduplicated shard fan-out for covering cells.

        ``cells`` are integer cell ids at ``precision`` (what
        :func:`repro.geo.geohash.cover` returns). A cell finer than (or
        equal to) the shard precision has exactly one owner, that of its
        ancestor ``cell >> 5 * levels``; a coarser cell spans the
        contiguous range of its descendants and may touch several shards.
        """
        shift = 5 * (precision - self.precision)
        if shift >= 0:
            return tuple(sorted({
                self.owner_of_cell(ancestor)
                for ancestor in {cell >> shift for cell in cells}
            }))
        owners = set()
        for cell in cells:
            first = self.owner_of_cell(cell << -shift)
            last = self.owner_of_cell(((cell + 1) << -shift) - 1)
            owners.update(range(first, last + 1))
        return tuple(sorted(owners))

    def shard_range(self, shard: int) -> Tuple[int, int]:
        """Half-open ``[lo, hi)`` cell range owned by ``shard``."""
        if not 0 <= shard < self.count:
            raise ValueError(f"shard {shard} out of range 0..{self.count - 1}")
        lo = self._starts[shard]
        hi = self._starts[shard + 1] if shard + 1 < self.count else self.cell_space
        return lo, hi
