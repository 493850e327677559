"""IOGP-style incremental edge-cut partitioning on edge streams.

Section 4.1.2: "Edge streams do not necessarily have locality and
algorithms in this class cannot maintain complete adjacency information
N(u) until all incident edges of vertex u arrive. Therefore, they produce
partitionings of lower quality than their vertex stream counterparts and
need to revisit their initial assignments (e.g. ... IOGP)."

Following Dai et al.'s IOGP (ICDCS 2017), this partitioner:

* places each vertex by hash the first time it appears (*quiet* stage);
* tracks, per vertex, how its already-seen neighbours are distributed;
* re-evaluates a vertex each time its observed degree doubles: if most of
  its neighbours live elsewhere and the target has headroom, the vertex
  (and, conceptually, its stored edges) migrates (*dynamic* stage).

The output is a :class:`VertexPartition` over the stream's vertices plus
a count of reassignments — Table 1 classifies IOGP as an edge-cut /
edge-stream / update-supporting greedy method, which is exactly this
shape.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.partitioning.base import (
    UNASSIGNED,
    EdgePartitioner,
    VertexPartition,
    check_finite_at_least,
    check_num_partitions,
    iter_edge_arrivals,
)
from repro.rng import SeededHash


class IogpPartitioner(EdgePartitioner):
    """Incremental online edge-cut partitioning over an edge stream.

    Parameters
    ----------
    balance_slack:
        β: no partition may exceed ``β |V| / k`` vertices after a
        migration (initial hash placements are unconditional, as in the
        original system).
    reassignment_threshold:
        Fraction of a vertex's observed neighbours that must live on the
        best other partition before a migration triggers (0.5 = simple
        majority).
    hash_seed:
        Seed of the first-sight hash placement.

    Notes
    -----
    ``partition_stream`` returns the vertex partitioning; the number of
    migrations performed is available as ``last_reassignments`` — the
    quality/instability trade-off the paper cites as the reason this class
    "is not generally deployed in real systems".
    """

    name = "iogp"

    def __init__(self, balance_slack: float = 1.1,
                 reassignment_threshold: float = 0.5, hash_seed: int = 0):
        check_finite_at_least("balance_slack (beta)", balance_slack, 1)
        if not 0.0 <= reassignment_threshold <= 1.0:
            raise ConfigurationError("reassignment_threshold must be in [0, 1]")
        self.balance_slack = balance_slack
        self.reassignment_threshold = reassignment_threshold
        self.hash_seed = hash_seed
        self.last_reassignments = 0

    def partition_stream(self, stream, num_partitions: int, *,
                         num_vertices: int,
                         num_edges: int | None = None) -> VertexPartition:
        k = check_num_partitions(num_partitions)
        hasher = SeededHash(k, self.hash_seed)
        capacity = max(1.0, self.balance_slack * num_vertices / k)

        assignment = np.full(num_vertices, UNASSIGNED, dtype=np.int32)
        sizes = np.zeros(k, dtype=np.int64)
        # Per-vertex neighbour distribution over partitions.
        neighbor_counts = np.zeros((num_vertices, k), dtype=np.int32)
        degree = np.zeros(num_vertices, dtype=np.int64)
        next_check = np.ones(num_vertices, dtype=np.int64)
        reassignments = 0

        def place_first(vertex: int) -> None:
            part = hasher(vertex)
            assignment[vertex] = part
            sizes[part] += 1

        def maybe_migrate(vertex: int) -> None:
            nonlocal reassignments
            current = assignment[vertex]
            counts = neighbor_counts[vertex]
            best = int(np.argmax(counts))
            if best == current:
                return
            total = int(counts.sum())
            if total == 0:
                return
            if counts[best] < self.reassignment_threshold * total:
                return
            if sizes[best] + 1 > capacity:
                return
            assignment[vertex] = best
            sizes[current] -= 1
            sizes[best] += 1
            reassignments += 1

        for _eid, src, dst in iter_edge_arrivals(stream):
            for vertex in (src, dst):
                if assignment[vertex] == UNASSIGNED:
                    place_first(vertex)
            neighbor_counts[src, assignment[dst]] += 1
            neighbor_counts[dst, assignment[src]] += 1
            for vertex in (src, dst):
                degree[vertex] += 1
                # Re-evaluate on degree doublings (IOGP's staged checks).
                if degree[vertex] >= next_check[vertex]:
                    next_check[vertex] *= 2
                    maybe_migrate(vertex)

        # Vertices that never appeared on the stream (isolated) get the
        # same first-sight hash placement they would receive on arrival.
        unseen = np.flatnonzero(assignment == UNASSIGNED)
        if unseen.size:
            parts = hasher(unseen)
            assignment[unseen] = parts
            sizes += np.bincount(parts, minlength=k)

        self.last_reassignments = reassignments
        return VertexPartition(k, assignment, algorithm=self.name)
