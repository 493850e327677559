"""TAPER-style query-aware partition enhancement (Firth & Missier, 2017).

Table 1 of the paper lists TAPER as the workload-aware edge-cut method:
it "continuously monitors incoming subgraph matching queries to discover
frequent patterns and uses an LDG-like heuristic that reduces the
possibility of inter-partition traversals".  Its cost metric is not the
edge-cut ratio but the **inter-partition traversal** count: cut edges
weighted by how often queries actually traverse them.

This module implements that idea on top of this repo's query machinery:

1. :func:`traversal_weights_from_plans` turns recorded query plans into
   per-edge traversal weights (how often each edge was walked);
2. :func:`inter_partition_traversals` is TAPER's objective;
3. :func:`taper_refine` migrates boundary vertices, LDG-like, to the
   partition holding the largest traversal weight, under a balance
   constraint — improving the objective monotonically.

Together with :func:`repro.partitioning.workload_aware.
workload_aware_partition` this covers both workload-aware strategies the
paper's Section 6.3.3 calls for.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, PartitioningError
from repro.graph.digraph import Graph
from repro.partitioning.base import VertexPartition, check_finite_at_least
from repro.rng import make_rng


def traversal_weights_from_plans(graph: Graph, plans) -> np.ndarray:
    """Per-edge traversal counts implied by a set of query plans.

    A plan's phase ``i`` reads a vertex set ``A`` and phase ``i+1`` reads
    ``B``: the traversal walked every edge between a vertex of ``A`` and a
    vertex of ``B`` (in either direction).  Each such edge's weight grows
    by one per plan.
    """
    weights = np.zeros(graph.num_edges, dtype=np.float64)
    src, dst = graph.src, graph.dst
    for plan in plans:
        for phase_a, phase_b in zip(plan.phases, plan.phases[1:]):
            set_a = set(phase_a.tolist())
            set_b = set(phase_b.tolist())
            # Walk the smaller side's incident edges.
            anchor, other = (set_a, set_b) if len(set_a) <= len(set_b) \
                else (set_b, set_a)
            for u in anchor:
                for eid in graph.out_edge_ids(int(u)).tolist():
                    if int(dst[eid]) in other:
                        weights[eid] += 1.0
                for eid in graph.in_edge_ids(int(u)).tolist():
                    if int(src[eid]) in other:
                        weights[eid] += 1.0
    return weights


def inter_partition_traversals(graph: Graph, partition: VertexPartition,
                               edge_weights) -> float:
    """TAPER's objective: traversal weight crossing partition boundaries."""
    weights = np.asarray(edge_weights, dtype=np.float64)
    if weights.shape != (graph.num_edges,):
        raise ConfigurationError("edge_weights must have one entry per edge")
    assignment = partition.assignment
    cut = assignment[graph.src] != assignment[graph.dst]
    return float(weights[cut].sum())


def taper_refine(
    graph: Graph,
    partition: VertexPartition,
    edge_weights,
    *,
    balance_slack: float = 1.1,
    max_passes: int = 8,
    seed=None,
) -> VertexPartition:
    """Traversal-aware boundary migration (the TAPER enhancement step).

    Like Hermes-style refinement, but gains are traversal weights rather
    than raw edge counts: a vertex moves to the partition whose queries
    cross to it most often.  Returns a new partition; the objective never
    worsens.
    """
    weights = np.asarray(edge_weights, dtype=np.float64)
    if weights.shape != (graph.num_edges,):
        raise ConfigurationError("edge_weights must have one entry per edge")
    if (weights < 0).any():
        raise ConfigurationError("edge_weights must be non-negative")
    if partition.num_vertices != graph.num_vertices:
        raise PartitioningError("partition does not cover the graph")
    if not partition.is_complete():
        raise PartitioningError("cannot refine an incomplete partitioning")
    check_finite_at_least("balance_slack (beta)", balance_slack, 1)

    rng = make_rng(seed)
    k = partition.num_partitions
    assignment = partition.assignment.copy()
    sizes = partition.sizes().astype(np.int64)
    capacity = max(1.0, balance_slack * graph.num_vertices / k)
    src, dst = graph.src, graph.dst

    for _pass in range(max_passes):
        # Boundary vertices with traversal weight at stake.
        cross = (assignment[src] != assignment[dst]) & (weights > 0)
        if not cross.any():
            break
        hot = np.unique(np.concatenate([src[cross], dst[cross]]))
        moved = 0
        for u in rng.permutation(hot).tolist():
            current = assignment[u]
            gain_to = np.zeros(k, dtype=np.float64)
            out_ids = graph.out_edge_ids(u)
            in_ids = graph.in_edge_ids(u)
            np.add.at(gain_to, assignment[dst[out_ids]], weights[out_ids])
            np.add.at(gain_to, assignment[src[in_ids]], weights[in_ids])
            internal = gain_to[current]
            gain_to -= internal
            gain_to[current] = 0.0
            feasible = sizes + 1 <= capacity
            feasible[current] = False
            candidate = np.where(feasible, gain_to, -np.inf)
            best = int(np.argmax(candidate))
            if candidate[best] > 0:
                assignment[u] = best
                sizes[current] -= 1
                sizes[best] += 1
                moved += 1
        if moved == 0:
            break
    return VertexPartition(k, assignment,
                           algorithm=f"{partition.algorithm}+taper")
