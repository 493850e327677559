"""Leopard-style dynamic edge-cut partitioning with replication.

Huang & Abadi (VLDB 2016), the last row of the paper's Table 1:
"lightweight edge-oriented partitioning and replication for dynamic
graphs" — an edge-cut / edge-stream method with update support whose
distinguishing feature is maintaining *read replicas* alongside the
primary copy of each vertex.

This implementation follows the system's three mechanisms in simplified
but faithful form:

1. **Incremental placement** — a vertex is assigned on first sight by an
   LDG-like score over its already-seen neighbours;
2. **Lazy reassignment** — each time a vertex gains edges (checked on
   degree doublings), its current primary is re-scored against the best
   alternative and moved only when the alternative wins by at least
   ``reassignment_gain`` (Leopard's "is the move worth it" test) and the
   target has capacity;
3. **Replication policy** — a replica of ``v`` is kept on every partition
   holding at least ``replication_fraction`` of v's neighbours (read
   locality), capped at ``max_replicas`` copies including the primary.

``partition_stream`` returns the primary assignment as a
:class:`VertexPartition`; ``last_replicas`` holds the replica sets and
``replication_overhead()`` the average copies per vertex — the metric
Leopard trades against the cut.
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


class LeopardPartitioner(EdgePartitioner):
    """Leopard-style dynamic edge-cut partitioner with read replicas.

    Parameters
    ----------
    balance_slack:
        β: primaries may not migrate into partitions above ``β n / k``.
    reassignment_gain:
        Minimum multiplicative score improvement before a primary moves
        (1.0 = move on any improvement; higher = stickier placement).
    replication_fraction:
        A partition holding at least this fraction of a vertex's observed
        neighbours earns a read replica.
    max_replicas:
        Cap on copies per vertex, primary included.
    """

    name = "leopard"

    def __init__(self, balance_slack: float = 1.1,
                 reassignment_gain: float = 1.5,
                 replication_fraction: float = 0.3,
                 max_replicas: int = 3, hash_seed: int = 0):
        check_finite_at_least("balance_slack (beta)", balance_slack, 1)
        if reassignment_gain < 1.0:
            raise ConfigurationError("reassignment_gain must be >= 1")
        if not 0.0 < replication_fraction <= 1.0:
            raise ConfigurationError("replication_fraction must be in (0, 1]")
        if max_replicas < 1:
            raise ConfigurationError("max_replicas must be >= 1")
        self.balance_slack = balance_slack
        self.reassignment_gain = reassignment_gain
        self.replication_fraction = replication_fraction
        self.max_replicas = max_replicas
        self.hash_seed = hash_seed
        self.last_replicas: list[set[int]] | None = None
        self.last_reassignments = 0

    # ------------------------------------------------------------------
    def partition_stream(self, stream, num_partitions: int, *,
                         num_vertices: int,
                         num_edges: int | None = None) -> VertexPartition:
        k = check_num_partitions(num_partitions)
        hasher = SeededHash(k, self.hash_seed)
        capacity = max(1.0, self.balance_slack * num_vertices / k)

        primary = np.full(num_vertices, UNASSIGNED, dtype=np.int32)
        sizes = np.zeros(k, dtype=np.int64)
        neighbor_counts = np.zeros((num_vertices, k), dtype=np.int32)
        degree = np.zeros(num_vertices, dtype=np.int64)
        next_check = np.ones(num_vertices, dtype=np.int64)
        reassignments = 0

        def score(vertex: int) -> np.ndarray:
            """LDG-like placement score against current loads."""
            counts = neighbor_counts[vertex].astype(np.float64)
            return (counts + 1.0) * (1.0 - sizes / (capacity * 1.0000001))

        def place_first(vertex: int, other: int) -> None:
            if primary[other] != UNASSIGNED:
                target = int(primary[other])      # join the known neighbour
                if sizes[target] >= capacity:
                    target = hasher(vertex)
            else:
                target = hasher(vertex)
            primary[vertex] = target
            sizes[target] += 1

        def maybe_reassign(vertex: int) -> None:
            nonlocal reassignments
            current = int(primary[vertex])
            scores = score(vertex)
            best = int(np.argmax(scores))
            if best == current:
                return
            if scores[best] < self.reassignment_gain * max(scores[current], 1e-12):
                return
            if sizes[best] + 1 > capacity:
                return
            primary[vertex] = best
            sizes[current] -= 1
            sizes[best] += 1
            reassignments += 1

        for _eid, src, dst in iter_edge_arrivals(stream):
            if primary[src] == UNASSIGNED:
                place_first(src, dst)
            if primary[dst] == UNASSIGNED:
                place_first(dst, src)
            neighbor_counts[src, primary[dst]] += 1
            neighbor_counts[dst, primary[src]] += 1
            for vertex in (src, dst):
                degree[vertex] += 1
                if degree[vertex] >= next_check[vertex]:
                    next_check[vertex] *= 2
                    maybe_reassign(vertex)

        # Unseen (isolated) vertices: hash placement.
        unseen = np.flatnonzero(primary == UNASSIGNED)
        if unseen.size:
            parts = hasher(unseen)
            primary[unseen] = parts
            sizes += np.bincount(parts, minlength=k)

        self.last_replicas = self._build_replicas(primary, neighbor_counts,
                                                  degree, k)
        self.last_reassignments = reassignments
        self._last_primary = primary.copy()
        return VertexPartition(k, primary, algorithm=self.name)

    # ------------------------------------------------------------------
    def _build_replicas(self, primary, neighbor_counts, degree,
                        k: int) -> list[set[int]]:
        """Replica sets per vertex: the primary plus read replicas on
        partitions hosting >= replication_fraction of the neighbours."""
        replicas: list[set[int]] = []
        for vertex in range(primary.size):
            copies = {int(primary[vertex])}
            total = int(degree[vertex])
            if total > 0:
                counts = neighbor_counts[vertex]
                eligible = np.flatnonzero(
                    counts >= self.replication_fraction * total)
                # Strongest partitions first, up to the cap.
                for part in eligible[np.argsort(-counts[eligible],
                                                kind="stable")].tolist():
                    if len(copies) >= self.max_replicas:
                        break
                    copies.add(int(part))
            replicas.append(copies)
        return replicas

    def replication_overhead(self) -> float:
        """Average copies per vertex (1.0 = no replication) of the last run."""
        if not self.last_replicas:
            return 0.0
        return float(np.mean([len(c) for c in self.last_replicas]))

    def local_read_fraction(self, graph) -> float:
        """Fraction of (directed) edges whose source's primary partition
        holds a copy of the target — the read locality Leopard's replicas
        buy over the plain edge-cut (where it equals 1 − cut ratio)."""
        if self.last_replicas is None:
            return 0.0
        hits = 0
        primary = self._last_primary
        for u, v in zip(graph.src.tolist(), graph.dst.tolist()):
            if int(primary[u]) in self.last_replicas[v]:
                hits += 1
        return hits / max(graph.num_edges, 1)
