"""Grid constrained vertex-cut partitioning — Jain et al. (GraphBuilder).

Partitions are arranged on a virtual 2-D grid; the *constrained set* of a
partition is its row plus its column.  An edge ``(u, v)`` hashes both
endpoints to partitions ``P_i``/``P_j`` and is placed on the least-loaded
member of ``constraint(P_i) ∩ constraint(P_j)``.  Any two row+column sets
of a full grid intersect in at least two cells, which upper-bounds every
vertex's replication by ``2 sqrt(k) - 1`` (Section 4.2.2) — a property the
test suite asserts.

For non-square ``k`` the grid is ragged (last row short); when the ragged
intersection is empty we fall back to the union of the two constrained
sets, preserving the bound.
"""

from __future__ import annotations

import math

import numpy as np

from repro.partitioning.base import (
    EdgePartition,
    EdgePartitioner,
    check_num_partitions,
)
from repro.partitioning.kernels import iter_edge_chunks, pick_least_loaded
from repro.rng import SeededHash, make_rng


def grid_shape(k: int) -> tuple[int, int]:
    """Rows/cols of the virtual grid for *k* partitions (rows <= cols)."""
    rows = max(1, int(math.floor(math.sqrt(k))))
    cols = int(math.ceil(k / rows))
    return rows, cols


def constrained_sets(k: int) -> list[np.ndarray]:
    """The constrained set (row ∪ column members) of every partition."""
    rows, cols = grid_shape(k)
    sets = []
    for p in range(k):
        r, c = divmod(p, cols)
        row_members = [r * cols + j for j in range(cols) if r * cols + j < k]
        col_members = [i * cols + c for i in range(rows) if i * cols + c < k]
        sets.append(np.unique(np.array(row_members + col_members, dtype=np.int64)))
    return sets


def _place_edges(candidate_table: list, anchors_u: list, anchors_v: list,
                 loads: list, rng: np.random.Generator | None) -> list:
    """The least-loaded candidate of each edge of one chunk (a short
    function: tracemalloc charges allocations by instruction offset)."""
    choices = []
    for anchor_u, anchor_v in zip(anchors_u, anchors_v):
        choice = pick_least_loaded(candidate_table[anchor_u][anchor_v],
                                   loads, rng)
        choices.append(choice)
        loads[choice] += 1
    return choices


class GridPartitioner(EdgePartitioner):
    """Grid constrained vertex-cut streaming partitioner."""

    name = "grid"

    def __init__(self, hash_seed: int = 0, seed=None):
        self.hash_seed = hash_seed
        self.seed = seed

    def partition_stream(self, stream, num_partitions: int, *,
                         num_vertices: int, num_edges: int) -> EdgePartition:
        k = check_num_partitions(num_partitions)
        rng = make_rng(self.seed)
        hasher = SeededHash(k, self.hash_seed)
        sets = [set(members.tolist()) for members in constrained_sets(k)]
        # Pre-computing the k x k candidate table (partition ids in
        # increasing order) keeps the per-edge work to a lookup plus a
        # least-loaded pick over O(sqrt(k)) loads.  A ragged grid can
        # leave two sets disjoint; their union keeps the bound there.
        candidate_table = [[sorted(a & b or a | b) for b in sets]
                           for a in sets]
        assignment = np.full(num_edges, -1, dtype=np.int32)
        loads = [0] * k

        # Bulk-hash the anchors one chunk at a time (the hash is
        # stateless); the load-aware choice stays sequential because it
        # reads the evolving loads.
        for ids_chunk, src_chunk, dst_chunk in iter_edge_chunks(stream):
            assignment[ids_chunk] = _place_edges(
                candidate_table, hasher(src_chunk).tolist(),
                hasher(dst_chunk).tolist(), loads, rng)
        return EdgePartition(k, assignment, algorithm=self.name)
