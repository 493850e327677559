"""Workload-aware partitioning (Section 6.3.3, Figure 8).

The paper shows that online graph queries suffer from *workload skew* that
structural SGP objectives ignore: hotspots concentrate accesses on a few
partitions.  Its remedy — "we record vertex and edge accesses during the
execution of the 1-hop query workload to compute a weighted graph where
weights represent the access ratio. Then, we compute a 16-way balanced
partitioning of this weighted graph using METIS" — is implemented here on
top of our multilevel partitioner.

Besides the offline weighted-multilevel variant the module also provides
a weighted LDG streaming variant (the Appendix-A generalisation:
substituting partition cardinality with an arbitrary vertex attribute sum
``x_i = Σ_{u ∈ P_i} a(u)`` in Eq. 4).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.digraph import Graph
from repro.partitioning.base import VertexPartition, check_finite_entries
from repro.partitioning.edge_cut.ldg import LdgPartitioner
from repro.partitioning.kernels import LdgKernel
from repro.partitioning.multilevel import multilevel_partition


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
    counts = check_finite_entries("access count", access_counts)
    if counts.shape != (graph.num_vertices,):
        raise ConfigurationError("access_counts must have one entry per vertex")
    weights = counts + smoothing
    partition = multilevel_partition(
        graph, num_partitions,
        vertex_weights=weights,
        balance_slack=balance_slack,
        seed=seed,
    )
    partition.algorithm = "mts-w"
    return partition


class WeightedLdgKernel(LdgKernel):
    """LDG on the load ``x_i = Σ_{u ∈ P_i} a(u)`` instead of ``|P_i|``;
    ties go to the lightest load."""

    def __init__(self, num_partitions: int, num_vertices: int,
                 capacity: float, vertex_weights: np.ndarray) -> None:
        super().__init__(num_partitions, num_vertices, capacity)
        self.vertex_weights = vertex_weights
        self.tie_key = np.zeros(self.k)

    def place(self, vertex: int, target: int) -> None:
        self.slots[vertex] = target
        self.sizes[target] += 1
        load = self.tie_key[target] + self.vertex_weights[vertex]
        self.tie_key[target] = load
        self._availability[target] = 1.0 - load / self.capacity


class WeightedLdgPartitioner(LdgPartitioner):
    """LDG balancing on a vertex attribute instead of cardinality.

    Appendix A: re-streaming versions of LDG "can generate a balanced
    partitioning on any vertex attribute a(u) by substituting |P_i| with
    ``x_i = Σ_{u ∈ P_i} a(u)``".  We apply the same substitution to the
    single-pass algorithm.
    """

    name = "ldg-w"

    def __init__(self, vertex_weights, balance_slack: float = 1.0, seed=None):
        super().__init__(balance_slack=balance_slack, seed=seed)
        self.vertex_weights = check_finite_entries("vertex weight",
                                                   vertex_weights)

    def _make_kernel(self, k, num_vertices, num_edges):
        if self.vertex_weights.shape != (num_vertices,):
            raise ConfigurationError("vertex_weights must have one entry per vertex")
        total = float(self.vertex_weights.sum())
        capacity = max(total / k * self.balance_slack, 1e-12)
        return WeightedLdgKernel(k, num_vertices, capacity,
                                 self.vertex_weights)
