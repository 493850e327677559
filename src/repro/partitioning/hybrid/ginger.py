"""Ginger (HG) — PowerLyra's heuristic hybrid-cut, Chen et al. 2015.

Eq. 8 of the paper: a FENNEL-like greedy that assigns each *vertex* ``v``
together with all of its in-edges to the partition maximising

    |P_i ∩ N_in(v)|  -  c · ½ (|V_i| + (|V| / |E|) · |E_i|)

i.e. FENNEL's neighbour affinity, but with a balance term that mixes the
partition's vertex count ``|V_i|`` and (rescaled) edge count ``|E_i|``.
After the first phase, vertices whose in-degree exceeds a user threshold
are declared high-degree and their in-edges are *re-assigned* by hashing
on the source, exactly like HCR — preserving low-degree locality while
spreading hubs.

On an edge stream Ginger therefore "works in two phases" (Section 4.3):
we buffer arrivals, group them by target in first-arrival order, and run
the greedy vertex pass over that order.  The pass follows the FENNEL
kernel's recipe (:mod:`repro.partitioning.kernels`): unplaced vertices sit
in bucket ``k`` so each target costs one ``bincount``, and the balance
term is updated only for the partition that just grew.  Phase 2 is one
vectorized hash over every high-degree in-edge.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.partitioning.base import (
    UNASSIGNED,
    EdgePartition,
    EdgePartitioner,
    check_finite_at_least,
    check_num_partitions,
    edge_stream_arrays,
)
from repro.partitioning.edge_cut.fennel import fennel_alpha
from repro.partitioning.hybrid.hybrid_hash import DEFAULT_DEGREE_THRESHOLD
from repro.partitioning.kernels import argmax_tie_least_loaded
from repro.rng import SeededHash, make_rng


class GingerPartitioner(EdgePartitioner):
    """Ginger hybrid-cut streaming partitioner (HG).

    Parameters
    ----------
    degree_threshold:
        In-degree above which a vertex's in-edges are spread by source hash.
    balance_coefficient:
        The ``c`` of Eq. 8; ``None`` derives FENNEL's
        ``sqrt(k) * m / n^1.5`` at run time.
    hash_seed, seed:
        Hash seed for the high-degree phase / tie-break randomness.
    """

    name = "hg"

    def __init__(self, degree_threshold: int = DEFAULT_DEGREE_THRESHOLD,
                 balance_coefficient: float | None = None,
                 hash_seed: int = 0, seed=None):
        check_finite_at_least("degree_threshold", degree_threshold, 1)
        if balance_coefficient is not None:
            check_finite_at_least("balance_coefficient", balance_coefficient,
                                  0)
        self.degree_threshold = degree_threshold
        self.balance_coefficient = balance_coefficient
        self.hash_seed = hash_seed
        self.seed = seed

    def partition_stream(self, stream, num_partitions: int, *,
                         num_vertices: int, num_edges: int) -> EdgePartition:
        k = check_num_partitions(num_partitions)
        rng = make_rng(self.seed)
        coefficient = self.balance_coefficient
        if coefficient is None:
            coefficient = fennel_alpha(k, num_vertices, num_edges)
        half_coefficient = coefficient * 0.5
        edge_scale = num_vertices / max(num_edges, 1)

        # Buffer the stream and group it by target: targets in
        # first-arrival order, each target's in-edges in arrival order.
        edge_ids, src, dst = edge_stream_arrays(stream)
        unique_dst, first_arrival, inverse, in_degree = np.unique(
            dst, return_index=True, return_inverse=True, return_counts=True)
        by_arrival = np.argsort(first_arrival)
        rank = np.empty_like(by_arrival)
        rank[by_arrival] = np.arange(by_arrival.size)
        edge_rank = rank[inverse]
        grouped_src = src[np.argsort(edge_rank, kind="stable")]
        targets = unique_dst[by_arrival]
        in_degree = in_degree[by_arrival]

        # Phase 1: FENNEL-like greedy per target vertex.  slots[v] == k
        # means "not yet placed", so unplaced in-neighbours land in the
        # overflow bucket of one bincount.  penalty[i] is the balance term
        # c·½(|V_i| + (|V|/|E|)·|E_i|); only the partition that just grew
        # changes, so only its entry is recomputed.
        slots = np.full(num_vertices, k, dtype=np.int64)
        penalty = np.zeros(k, dtype=np.float64)
        scores = np.empty(k, dtype=np.float64)
        vertex_sizes = [0] * k
        edge_sizes = np.zeros(k, dtype=np.int64)
        start = 0
        for v, end in zip(targets.tolist(), np.cumsum(in_degree).tolist()):
            counts = np.bincount(slots[grouped_src[start:end]],
                                 minlength=k + 1)
            np.subtract(counts[:k], penalty, out=scores)
            target = argmax_tie_least_loaded(scores, edge_sizes, rng)
            slots[v] = target
            vertex_sizes[target] += 1
            edges = int(edge_sizes[target]) + end - start
            edge_sizes[target] = edges
            penalty[target] = half_coefficient * (vertex_sizes[target]
                                                  + edge_scale * edges)
            start = end

        # Vertices that own no in-edges (sources only, or isolated) still
        # need a master: each goes to the partition with the fewest
        # vertices so far, the lowest index on ties.
        heap = [(size, part) for part, size in enumerate(vertex_sizes)]
        heapq.heapify(heap)
        unplaced = np.flatnonzero(slots == k)
        homes = []
        for _ in range(unplaced.size):
            size, part = heap[0]
            homes.append(part)
            heapq.heapreplace(heap, (size + 1, part))
        slots[unplaced] = homes

        assignment = np.full(num_edges, UNASSIGNED, dtype=np.int32)
        assignment[edge_ids] = slots[dst]

        # Phase 2: spread the in-edges of high-degree vertices by source.
        spread = (in_degree > self.degree_threshold)[edge_rank]
        if spread.any():
            hasher = SeededHash(k, self.hash_seed)
            assignment[edge_ids[spread]] = hasher(src[spread])

        return EdgePartition(k, assignment, algorithm=self.name,
                             masters=slots)
