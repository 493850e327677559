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
   constraint — improving the objective monotonically.  The loop is
   :func:`repro.partitioning.dynamic.refine_boundary`, which Hermes-style
   refinement runs with every edge weighing one.

Together with :func:`repro.partitioning.workload_aware.
workload_aware_partition` this covers both workload-aware strategies the
paper's Section 6.3.3 calls for.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.digraph import Graph
from repro.partitioning.base import VertexPartition, check_finite_entries
from repro.partitioning.dynamic import refine_boundary


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
    weights = check_finite_entries("edge weight", edge_weights)
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
    cross to it most often, and only endpoints of traversed cut edges
    are visited.  Returns a new partition; the objective never worsens.
    """
    weights = check_finite_entries("edge weight", edge_weights)
    if weights.shape != (graph.num_edges,):
        raise ConfigurationError("edge_weights must have one entry per edge")
    return refine_boundary(graph, partition, weights, balance_slack,
                           max_passes, None, seed, "taper")
