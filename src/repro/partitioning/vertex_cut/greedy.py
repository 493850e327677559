"""PowerGraph's greedy vertex-cut — Gonzalez et al., OSDI 2012.

The classic oblivious/coordinated greedy placement rules, driven by the
replica sets ``A(u)`` of the two endpoints of each arriving edge:

1. ``A(u) ∩ A(v) ≠ ∅``  → least-loaded common partition;
2. both non-empty but disjoint → least-loaded partition among the replica
   set of the *higher-degree* endpoint gains the new replica (PowerGraph
   places the edge with the endpoint that has more unassigned edges; we
   use current partial degree);
3. exactly one non-empty → least-loaded member of it;
4. both empty → least-loaded partition overall.

The paper (Section 4.2.2) notes this formulation is sensitive to stream
order — a BFS-ordered stream can collapse into a single partition because
rule 1 always finds the previously used partition — which HDRF's λ term
fixes.  The ablation bench measures exactly that contrast.

Like HDRF, the scoring loop lives in a chunk-driven core
(:class:`GreedyCore`) over a pluggable degree state, so the same rules
run in-memory, out-of-core and sharded (:mod:`repro.ingest.shard`).
"""

from __future__ import annotations

import numpy as np

from repro.partitioning.degree_state import (
    DEFAULT_SKETCH_DEPTH,
    DEFAULT_SKETCH_WIDTH,
)
from repro.partitioning.drivers import DegreeStatePartitioner
from repro.partitioning.kernels import argmin_with_ties_inline, zip_chunked
from repro.rng import make_rng


class GreedyCore:
    """Incremental PowerGraph-greedy state, fed one edge chunk at a time."""

    algorithm = "greedy"

    def __init__(self, num_partitions: int, num_vertices: int, *,
                 degrees, rng: np.random.Generator | None) -> None:
        self.k = int(num_partitions)
        self.rng = rng
        self.degrees = degrees
        self.sizes = np.zeros(self.k, dtype=np.int64)
        self.replicas = np.zeros((int(num_vertices), self.k), dtype=bool)
        self._common = np.empty(self.k, dtype=bool)
        self._everyone = np.arange(self.k)

    def rebase_sizes(self, global_sizes: np.ndarray) -> None:
        """Re-anchor the least-loaded comparisons on a synced snapshot."""
        np.copyto(self.sizes, global_sizes)

    def state_nbytes(self) -> int:
        return int(self.sizes.nbytes + self.replicas.nbytes +
                   self._common.nbytes + self._everyone.nbytes +
                   self.degrees.nbytes)

    def process_chunk(self, edge_ids: np.ndarray, src_arr: np.ndarray,
                      dst_arr: np.ndarray, assignment: np.ndarray) -> None:
        d_u, d_v = self.degrees.push(src_arr, dst_arr)
        replicas = self.replicas
        sizes = self.sizes
        common = self._common
        everyone = self._everyone
        rng = self.rng
        for edge_id, src, dst, du, dv in zip_chunked(edge_ids, src_arr,
                                                     dst_arr, d_u, d_v):
            mask_u = replicas[src]
            mask_v = replicas[dst]
            np.logical_and(mask_u, mask_v, out=common)
            if common.any():
                candidates = np.flatnonzero(common)
            elif mask_u.any() and mask_v.any():
                # Cut through the higher-degree endpoint: the edge goes to
                # the replica set of the *lower*-degree one... PowerGraph's
                # heuristic keeps the endpoint with more remaining edges
                # intact, so we choose among the replicas of the endpoint
                # with the larger partial degree.
                chosen = mask_u if du >= dv else mask_v
                candidates = np.flatnonzero(chosen)
            elif mask_u.any():
                candidates = np.flatnonzero(mask_u)
            elif mask_v.any():
                candidates = np.flatnonzero(mask_v)
            else:
                candidates = everyone
            choice = candidates[argmin_with_ties_inline(sizes[candidates], rng)]
            assignment[edge_id] = choice
            sizes[choice] += 1
            replicas[src, choice] = True
            replicas[dst, choice] = True


class GreedyVertexCutPartitioner(DegreeStatePartitioner):
    """PowerGraph-style greedy vertex-cut streaming partitioner."""

    name = "greedy"

    def __init__(self, seed=None, state: str = "exact",
                 sketch_width: int = DEFAULT_SKETCH_WIDTH,
                 sketch_depth: int = DEFAULT_SKETCH_DEPTH):
        super().__init__(state, sketch_width, sketch_depth)
        self.seed = seed

    def _make_core(self, k, num_vertices, num_edges, degrees):
        return GreedyCore(k, num_vertices, degrees=degrees,
                          rng=make_rng(self.seed))
