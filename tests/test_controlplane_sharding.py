"""Unit tests for the control plane's geohash-range shard map."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.controlplane.sharding import DEFAULT_SHARD_PRECISION, ShardMap
from repro.geo import geohash as gh


def owners_of_cell_str(shard_map, cell):
    """All shards intersecting one covering cell given as a geohash
    string: the form ``ShardMap.owners_of_cells`` replaced, kept as its
    reference."""
    length = len(cell)
    if length >= shard_map.precision:
        return (shard_map.owner_of_cell(gh.geohash_to_cell(cell[: shard_map.precision])),)
    value = gh.geohash_to_cell(cell)
    shift = 5 * (shard_map.precision - length)
    first = shard_map.owner_of_cell(value << shift)
    last = shard_map.owner_of_cell(((value + 1) << shift) - 1)
    return tuple(range(first, last + 1))


def owners_for_cells_str(shard_map, cells):
    owners = set()
    for cell in cells:
        owners.update(owners_of_cell_str(shard_map, cell))
    return tuple(sorted(owners))


def owners_of_strings(shard_map, cells):
    """``owners_of_cells`` for same-precision cells written as strings."""
    (precision,) = {len(cell) for cell in cells}
    return shard_map.owners_of_cells(precision, map(gh.geohash_to_cell, cells))


class TestShardMap:
    def test_single_shard_owns_everything(self):
        shard_map = ShardMap(count=1)
        assert shard_map.owner_of_cell(0) == 0
        assert shard_map.owner_of_cell(shard_map.cell_space - 1) == 0

    def test_ranges_partition_the_cell_space(self):
        shard_map = ShardMap(count=7, precision=3)
        covered = 0
        previous_end = 0
        for shard in range(7):
            start, end = shard_map.shard_range(shard)
            assert start == previous_end
            covered += end - start
            previous_end = end
        assert covered == shard_map.cell_space
        assert previous_end == shard_map.cell_space

    def test_owner_respects_range_boundaries(self):
        shard_map = ShardMap(count=4, precision=3)
        for shard in range(4):
            start, end = shard_map.shard_range(shard)
            assert shard_map.owner_of_cell(start) == shard
            assert shard_map.owner_of_cell(end - 1) == shard

    def test_owner_of_geohash_matches_cell_codec(self):
        shard_map = ShardMap(count=5)
        for geohash in ("9zvx", "9zvxk", "dp0qrs", "c2b2qhw9e"):
            cell = gh.geohash_to_cell(geohash[:DEFAULT_SHARD_PRECISION])
            assert shard_map.owner_of_geohash(geohash) == shard_map.owner_of_cell(cell)

    def test_owner_of_geohash_requires_shard_precision(self):
        shard_map = ShardMap(count=2, precision=4)
        with pytest.raises(ValueError):
            shard_map.owner_of_geohash("9zv")

    def test_short_cell_expands_to_owner_range(self):
        """A covering cell coarser than the shard precision can straddle
        shards: its owners are the owners of its child-cell range."""
        shard_map = ShardMap(count=8, precision=4)
        parent = "9zv"  # precision 3 < shard precision 4
        owners = owners_of_strings(shard_map, [parent])
        assert owners == owners_of_cell_str(shard_map, parent)
        children = {
            shard_map.owner_of_geohash(parent + suffix)
            for suffix in "0123456789bcdefghjkmnpqrstuvwxyz"
        }
        assert set(owners) == children
        # Geohash integer ranges are contiguous, so the owners are too.
        assert list(owners) == list(range(owners[0], owners[-1] + 1))

    def test_owners_for_cells_sorted_and_deduped(self):
        shard_map = ShardMap(count=8, precision=4)
        cells = ["9zvx", "9zvy", "9zvx", "dp0q"]
        owners = owners_of_strings(shard_map, cells)
        assert list(owners) == sorted(set(owners))
        assert owners == owners_for_cells_str(shard_map, cells)

    def test_cell_as_fine_as_the_shard_precision_has_its_ancestors_owner(self):
        shard_map = ShardMap(count=8, precision=4)
        for geohash in ("9zvx", "9zvxk", "dp0qrs", "c2b2qhw9e", "zzzzzzzzzzzz"):
            assert owners_of_strings(shard_map, [geohash]) == (
                shard_map.owner_of_geohash(geohash),
            )

    def test_owners_of_cells_rejects_a_cell_outside_its_precision(self):
        shard_map = ShardMap(count=4, precision=4)
        for precision, cell in ((4, 1 << 20), (5, 1 << 25), (3, 1 << 15), (4, -1)):
            with pytest.raises(ValueError):
                shard_map.owners_of_cells(precision, [cell])

    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=6),
        st.floats(min_value=-90.0, max_value=90.0),
        st.floats(min_value=-180.0, max_value=180.0),
        st.sampled_from([0.05, 0.5, 4.0, 8.0, 80.0, 400.0, 2500.0]),
    )
    def test_integer_owners_of_a_cover_are_the_string_owners(
        self, count, shard_precision, lat, lon, radius_km
    ):
        """Covers finer than, equal to and coarser than the shard
        precision, anywhere on the globe."""
        shard_map = ShardMap(count=min(count, 32**shard_precision), precision=shard_precision)
        precision, cells = gh.cover(lat, lon, radius_km)
        strings = [gh.cell_to_geohash(cell, precision) for cell in cells]
        assert shard_map.owners_of_cells(precision, cells) == owners_for_cells_str(
            shard_map, strings
        )

    def test_validations(self):
        with pytest.raises(ValueError):
            ShardMap(count=0)
        with pytest.raises(ValueError):
            ShardMap(count=1, precision=0)
        with pytest.raises(ValueError):
            ShardMap(count=1 << 20, precision=1)  # more shards than cells
