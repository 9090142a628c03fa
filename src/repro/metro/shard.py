"""Geohash partitioning of a metro population into shard kernels.

Ownership model:

- Every geohash **prefix cell** (``MetroSpec.shard_precision`` characters,
  one coarser than the selection cells) is owned by exactly one shard:
  the sorted list of populated prefixes is dealt round-robin over
  ``ShardSpec.count``. Because a selection cell's prefix is a pure
  integer shift of its cell id, every node, user and selection cell has
  exactly one owning shard.
- A node whose 3x3 selection-cell neighborhood touches a cell owned by
  another shard is **exported**: the owning shard publishes its
  authoritative (load, alive) at every boundary epoch, and the touched
  shards carry it as a read-only **ghost** advertisement that their
  users may select. Selecting a ghost triggers a user *handoff* through
  the boundary channel rather than a local attach — users are only ever
  attached to nodes their own shard owns.

With ``count=1`` the plan degenerates to "one shard owns everything,
no ghosts, no exports", which is how the ``shards=1`` bit-identity
guarantee against the unsharded kernel holds structurally rather than
by luck.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.geo import geohash
from repro.metro.spec import MetroPopulation, MetroSpec

__all__ = ["ShardPlan", "plan_shards"]


@dataclass
class ShardPlan:
    """The deterministic ownership tables of one partition."""

    shard_ids: List[str]
    #: Owning shard index per global node.
    node_shard: np.ndarray
    #: Per shard: ascending owned node gids / starting user gids (int32,
    #: the kernel's own gid column).
    node_gids: List[np.ndarray] = field(default_factory=list)
    user_gids: List[np.ndarray] = field(default_factory=list)
    #: Per shard: ascending ghost node gids + the owning shard of each.
    ghost_gids: List[np.ndarray] = field(default_factory=list)
    ghost_owners: List[List[int]] = field(default_factory=list)
    #: Per shard: ascending owned gids that other shards ghost.
    export_gids: List[np.ndarray] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.shard_ids)


def _prefix_groups(
    prefixes: np.ndarray, count: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted unique prefixes and their round-robin shard assignment."""
    unique = np.unique(prefixes)
    return unique, np.arange(unique.size, dtype=np.int64) % count


def plan_shards(spec: MetroSpec, population: MetroPopulation) -> ShardPlan:
    """Compute the ownership tables for ``spec.shard`` over a population."""
    count = spec.shard.count
    shard_ids = [f"shard{g}" for g in range(count)]
    nodes = population.nodes
    users = population.users

    if count == 1:
        return ShardPlan(
            shard_ids=shard_ids,
            node_shard=np.zeros(nodes, dtype=np.int64),
            node_gids=[np.arange(nodes, dtype=np.int64)],
            user_gids=[np.arange(users, dtype=np.int32)],
            ghost_gids=[np.empty(0, dtype=np.int64)],
            ghost_owners=[[]],
            export_gids=[np.empty(0, dtype=np.int64)],
        )

    cell_precision = population.cell_precision
    shift = np.uint64(5 * (cell_precision - spec.shard_precision))
    node_prefix = population.node_cell >> shift
    user_prefix = population.user_cell >> shift

    unique, groups = _prefix_groups(
        np.concatenate([node_prefix, user_prefix]), count
    )

    def to_group(prefix: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(unique, prefix)
        return groups[idx]

    node_shard = to_group(node_prefix)
    user_shard = to_group(user_prefix)

    # Ghost discovery: a node is exported to every *other* shard owning
    # a cell of its 3x3 selection-cell neighborhood.
    block = geohash.cell_neighborhood(population.node_cell, cell_precision)
    block_prefix = block >> shift
    idx = np.searchsorted(unique, block_prefix.reshape(-1))
    idx_clipped = np.minimum(idx, unique.size - 1)
    valid = unique[idx_clipped] == block_prefix.reshape(-1)
    block_group = np.where(valid, groups[idx_clipped], -1).reshape(block.shape)

    ghost_pairs: set[Tuple[int, int]] = set()  # (dest shard, node gid)
    own = node_shard[:, None]
    foreign = (block_group >= 0) & (block_group != own)
    for gid, dest in zip(*np.nonzero(foreign)):
        ghost_pairs.add((int(block_group[gid, dest]), int(gid)))

    ghost_gids: List[np.ndarray] = []
    ghost_owners: List[List[int]] = []
    export_sets: List[set] = [set() for _ in range(count)]
    for g in range(count):
        gids = sorted(gid for dest, gid in ghost_pairs if dest == g)
        ghost_gids.append(np.array(gids, dtype=np.int64))
        ghost_owners.append([int(node_shard[gid]) for gid in gids])
        for gid in gids:
            export_sets[int(node_shard[gid])].add(gid)

    return ShardPlan(
        shard_ids=shard_ids,
        node_shard=node_shard,
        node_gids=[
            np.flatnonzero(node_shard == g).astype(np.int64) for g in range(count)
        ],
        user_gids=[
            np.flatnonzero(user_shard == g).astype(np.int32) for g in range(count)
        ],
        ghost_gids=ghost_gids,
        ghost_owners=ghost_owners,
        export_gids=[
            np.array(sorted(export_sets[g]), dtype=np.int64) for g in range(count)
        ],
    )
