"""Workload-aware partitioning (Section 6.3.3, Figure 8).

The paper shows that online graph queries suffer from *workload skew* that
structural SGP objectives ignore: hotspots concentrate accesses on a few
partitions.  Its remedy — "we record vertex and edge accesses during the
execution of the 1-hop query workload to compute a weighted graph where
weights represent the access ratio. Then, we compute a 16-way balanced
partitioning of this weighted graph using METIS" — is implemented here on
top of our multilevel partitioner.

Besides the offline weighted-multilevel variant the module also provides
weighted LDG/FENNEL streaming variants (the Appendix-A generalisation:
substituting partition cardinality with an arbitrary vertex attribute sum
``x_i = Σ_{u ∈ P_i} a(u)`` in Eqs. 4/5).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.digraph import Graph
from repro.partitioning.base import (
    UNASSIGNED,
    VertexPartition,
    VertexPartitioner,
    argmax_with_ties,
    check_finite_at_least,
    check_num_partitions,
)
from repro.partitioning.multilevel import multilevel_partition
from repro.rng import make_rng


def workload_aware_partition(
    graph: Graph,
    num_partitions: int,
    access_counts,
    *,
    balance_slack: float = 1.05,
    smoothing: float = 1.0,
    seed=None,
) -> VertexPartition:
    """Weighted multilevel partitioning balancing on access counts.

    Parameters
    ----------
    access_counts:
        Per-vertex access counts recorded from a workload run (the
        weighted graph "W" of Figure 8).
    smoothing:
        Added to every count so never-accessed vertices still carry a
        minimal weight (otherwise balance would ignore them entirely).
    """
    counts = np.asarray(access_counts, dtype=np.float64)
    if counts.shape != (graph.num_vertices,):
        raise ConfigurationError("access_counts must have one entry per vertex")
    if (counts < 0).any():
        raise ConfigurationError("access_counts must be non-negative")
    weights = counts + smoothing
    partition = multilevel_partition(
        graph, num_partitions,
        vertex_weights=weights,
        balance_slack=balance_slack,
        seed=seed,
    )
    partition.algorithm = "mts-w"
    return partition


class WeightedLdgPartitioner(VertexPartitioner):
    """LDG balancing on a vertex attribute instead of cardinality.

    Appendix A: re-streaming versions of LDG "can generate a balanced
    partitioning on any vertex attribute a(u) by substituting |P_i| with
    ``x_i = Σ_{u ∈ P_i} a(u)``".  We apply the same substitution to the
    single-pass algorithm.
    """

    name = "ldg-w"

    def __init__(self, vertex_weights, balance_slack: float = 1.0, seed=None):
        check_finite_at_least("balance_slack (beta)", balance_slack, 1)
        self.vertex_weights = np.asarray(vertex_weights, dtype=np.float64)
        if (self.vertex_weights < 0).any():
            raise ConfigurationError("vertex_weights must be non-negative")
        self.balance_slack = balance_slack
        self.seed = seed

    def partition_stream(self, stream, num_partitions: int, *,
                         num_vertices: int) -> VertexPartition:
        k = check_num_partitions(num_partitions)
        if self.vertex_weights.shape != (num_vertices,):
            raise ConfigurationError("vertex_weights must have one entry per vertex")
        rng = make_rng(self.seed)
        total = float(self.vertex_weights.sum())
        capacity = max(total / k * self.balance_slack, 1e-12)
        assignment = np.full(num_vertices, UNASSIGNED, dtype=np.int32)
        loads = np.zeros(k, dtype=np.float64)

        for vertex, neighbors in stream:
            placed = assignment[neighbors]
            placed = placed[placed != UNASSIGNED]
            if placed.size:
                counts = np.bincount(placed, minlength=k).astype(np.float64)
            else:
                counts = np.zeros(k, dtype=np.float64)
            scores = counts * (1.0 - loads / capacity)
            target = argmax_with_ties(scores, tie_break=loads, rng=rng)
            assignment[vertex] = target
            loads[target] += self.vertex_weights[vertex]
        return VertexPartition(k, assignment, algorithm=self.name)
