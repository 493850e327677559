"""Structural partitioning-quality metrics (Sections 4.1/4.2 of the paper).

* :func:`edge_cut_ratio` — the edge-cut model's communication cost
  (Eq. 3): fraction of edges whose endpoints live on different machines.
* :func:`replication_factor` — the vertex-cut model's communication cost
  (Eq. 6): average number of partitions a vertex spans.
* :func:`load_imbalance` — ratio of the largest partition to the average,
  the paper's computational-imbalance indicator for both models.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PartitioningError
from repro.graph.digraph import Graph
from repro.graph.sorting import sorted_unique
from repro.partitioning.base import UNASSIGNED, EdgePartition, VertexPartition


def _require_cover(graph: Graph, partition) -> None:
    if isinstance(partition, VertexPartition):
        if partition.num_vertices != graph.num_vertices:
            raise PartitioningError(
                f"partition covers {partition.num_vertices} vertices, graph "
                f"has {graph.num_vertices}"
            )
    else:
        if partition.num_edges != graph.num_edges:
            raise PartitioningError(
                f"partition covers {partition.num_edges} edges, graph has "
                f"{graph.num_edges}"
            )


def edge_cut_ratio(graph: Graph, partition: VertexPartition) -> float:
    """Fraction of edges cut by a vertex-disjoint partitioning (Eq. 3)."""
    _require_cover(graph, partition)
    if graph.num_edges == 0:
        return 0.0
    assignment = partition.assignment
    cut = assignment[graph.src] != assignment[graph.dst]
    return float(cut.mean())


def vertex_replica_counts(graph: Graph, partition: EdgePartition, *,
                          allow_partial: bool = False) -> np.ndarray:
    """|A(v)| per vertex: how many partitions hold an edge incident to v.

    Vertices with no incident edges have count 0.  A partition containing
    ``UNASSIGNED`` edges is rejected unless ``allow_partial=True``, which
    counts replicas over the assigned edges only — the sentinel must never
    reach the pairing arithmetic below, where ``v*k - 1`` aliases into the
    previous vertex's bucket.
    """
    _require_cover(graph, partition)
    n = graph.num_vertices
    k = partition.num_partitions
    assignment = partition.assignment
    src, dst = graph.src, graph.dst
    unassigned = assignment == UNASSIGNED
    if unassigned.any():
        if not allow_partial:
            raise PartitioningError(
                f"{int(unassigned.sum())} of {partition.num_edges} edges are "
                "unassigned; pass allow_partial=True to score only the "
                "assigned edges"
            )
        keep = ~unassigned
        assignment = assignment[keep]
        src = src[keep]
        dst = dst[keep]
    vertex_ids = np.concatenate([src, dst])
    partitions = np.concatenate([assignment, assignment])
    pairs = vertex_ids.astype(np.int64) * k + partitions
    unique_pairs = sorted_unique(pairs)
    return np.bincount((unique_pairs // k).astype(np.int64), minlength=n)


def replication_factor(graph: Graph, partition: EdgePartition, *,
                       include_isolated: bool = False,
                       allow_partial: bool = False) -> float:
    """Average |A(v)| over vertices (Eq. 6).

    ``include_isolated=False`` (default) averages over vertices with at
    least one incident edge — matching how PowerGraph-family systems
    report the metric (a vertex that owns no edges has no replicas at
    all); ``True`` divides by |V| exactly as written in Eq. 6.
    ``allow_partial`` forwards to :func:`vertex_replica_counts`.
    """
    counts = vertex_replica_counts(graph, partition,
                                   allow_partial=allow_partial)
    if include_isolated:
        return float(counts.mean()) if counts.size else 0.0
    active = counts[counts > 0]
    return float(active.mean()) if active.size else 0.0


def load_imbalance(sizes: np.ndarray) -> float:
    """max / mean of partition sizes (1.0 = perfectly balanced)."""
    sizes = np.asarray(sizes, dtype=np.float64)
    if sizes.size == 0 or sizes.sum() == 0:
        return 1.0
    return float(sizes.max() / sizes.mean())


def partition_balance(graph: Graph, partition) -> float:
    """Load imbalance of a partitioning in its native load unit
    (vertices for edge-cut, edges for vertex-cut)."""
    _require_cover(graph, partition)
    return load_imbalance(partition.sizes())


def communication_cost(graph: Graph, partition, *,
                       allow_partial: bool = False) -> float:
    """The paper's C(P): edge-cut ratio or replication factor by model."""
    if isinstance(partition, VertexPartition):
        return edge_cut_ratio(graph, partition)
    return replication_factor(graph, partition, allow_partial=allow_partial)
