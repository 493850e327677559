"""Leopard-style dynamic edge-cut partitioning with replication.

Huang & Abadi (VLDB 2016), the last row of the paper's Table 1:
"lightweight edge-oriented partitioning and replication for dynamic
graphs" — an edge-cut / edge-stream method with update support whose
distinguishing feature is maintaining *read replicas* alongside the
primary copy of each vertex.

This implementation follows the system's three mechanisms in simplified
but faithful form:

1. **Incremental placement** — a vertex seen for the first time joins
   the partition of the endpoint it arrived with, or is hashed when that
   endpoint is new too or its partition is full;
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
Leopard trades against the cut.  The stream loop (first sight, degree
doubling revisits, the capacity check on a move) is
:class:`~repro.partitioning.drivers.RevisitingEdgeCutPartitioner`'s;
this class supplies mechanisms 1 and 2's scores and builds the replicas
once the stream is placed.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.partitioning.base import UNASSIGNED, check_finite_at_least
from repro.partitioning.drivers import (
    RevisitingEdgeCutPartitioner,
    RevisitState,
)


class LeopardPartitioner(RevisitingEdgeCutPartitioner):
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
        super().__init__(balance_slack, hash_seed)
        check_finite_at_least("reassignment_gain", reassignment_gain, 1)
        if not 0.0 < replication_fraction <= 1.0:
            raise ConfigurationError("replication_fraction must be in (0, 1]")
        check_finite_at_least("max_replicas", max_replicas, 1)
        self.reassignment_gain = reassignment_gain
        self.replication_fraction = replication_fraction
        self.max_replicas = max_replicas
        self.last_replicas: list[set[int]] | None = None

    def _first_home(self, state: RevisitState, vertex: int,
                    other: int) -> int:
        """Join the known neighbour unless its partition is full."""
        home = int(state.assignment[other])
        if home != UNASSIGNED and state.sizes[home] < state.capacity:
            return home
        return int(state.hash(vertex))

    def _better_home(self, state: RevisitState, vertex: int) -> int | None:
        """The best LDG-like score against current loads, if it beats
        the current primary's by ``reassignment_gain``."""
        counts = state.neighbor_counts[vertex].astype(np.float64)
        scores = (counts + 1.0) * (1.0 - state.sizes
                                   / (state.capacity * 1.0000001))
        best = int(np.argmax(scores))
        current = int(state.assignment[vertex])
        floor = self.reassignment_gain * max(scores[current], 1e-12)
        return None if best == current or scores[best] < floor else best

    def _finish(self, state: RevisitState) -> None:
        """Replica sets per vertex: the primary plus read replicas on
        partitions hosting >= replication_fraction of the neighbours."""
        self._last_primary = state.assignment.copy()
        self.last_replicas = []
        for vertex, home in enumerate(state.assignment.tolist()):
            copies = {home}
            total = int(state.degree[vertex])
            if total > 0:
                counts = state.neighbor_counts[vertex]
                eligible = np.flatnonzero(
                    counts >= self.replication_fraction * total)
                # Strongest partitions first, up to the cap.
                for part in eligible[np.argsort(-counts[eligible],
                                                kind="stable")].tolist():
                    if len(copies) >= self.max_replicas:
                        break
                    copies.add(part)
            self.last_replicas.append(copies)

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
