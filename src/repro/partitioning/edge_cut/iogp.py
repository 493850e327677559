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
shape.  The stream loop is
:class:`~repro.partitioning.drivers.RevisitingEdgeCutPartitioner`'s;
this class names the first home (the hash) and the better one (the
majority partition).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.partitioning.drivers import (
    RevisitingEdgeCutPartitioner,
    RevisitState,
)


class IogpPartitioner(RevisitingEdgeCutPartitioner):
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
        super().__init__(balance_slack, hash_seed)
        if not 0.0 <= reassignment_threshold <= 1.0:
            raise ConfigurationError("reassignment_threshold must be in [0, 1]")
        self.reassignment_threshold = reassignment_threshold

    def _first_home(self, state: RevisitState, vertex: int,
                    other: int) -> int:
        return int(state.hash(vertex))

    def _better_home(self, state: RevisitState, vertex: int) -> int | None:
        """The partition holding most of the vertex's observed
        neighbours, if it holds at least the threshold's share."""
        counts = state.neighbor_counts[vertex]
        best = int(np.argmax(counts))
        total = int(counts.sum())
        if (best == state.assignment[vertex] or total == 0
                or counts[best] < self.reassignment_threshold * total):
            return None
        return best
