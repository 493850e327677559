"""Hybrid Random (HCR) — PowerLyra's hash-based hybrid-cut, Chen et al. 2015.

PowerLyra differentiates low- and high-degree vertices: the in-edges of a
*low*-degree vertex are all grouped on ``hash(v)`` (edge-cut-like locality,
cheap uni-directional sync), while the in-edges of a *high*-degree vertex
are spread by ``hash(u)`` over the source (vertex-cut-like hub splitting).

On an edge stream this requires two phases (Section 4.3): the first pass
counts in-degrees while provisionally placing every edge on ``hash(dst)``;
the second re-assigns the in-edges of vertices over the degree threshold
to ``hash(src)``.  Both hashes are stateless, so — threshold detection
aside — HCR parallelises like plain hashing (Table 1: "Hash").
"""

from __future__ import annotations

import numpy as np

from repro.partitioning.base import (
    EdgePartition,
    EdgePartitioner,
    check_finite_at_least,
    check_num_partitions,
    edge_stream_arrays,
)
from repro.rng import SeededHash

#: PowerLyra's default high-degree threshold.
DEFAULT_DEGREE_THRESHOLD = 100


class HybridHashPartitioner(EdgePartitioner):
    """PowerLyra hybrid-cut with hash placement (HCR).

    Parameters
    ----------
    degree_threshold:
        In-degree above which a vertex is treated as high-degree.
    hash_seed:
        Seed of the stateless vertex hash.
    """

    name = "hcr"

    def __init__(self, degree_threshold: int = DEFAULT_DEGREE_THRESHOLD,
                 hash_seed: int = 0):
        check_finite_at_least("degree_threshold", degree_threshold, 1)
        self.degree_threshold = degree_threshold
        self.hash_seed = hash_seed

    def partition_stream(self, stream, num_partitions: int, *,
                         num_vertices: int, num_edges: int) -> EdgePartition:
        k = check_num_partitions(num_partitions)
        hasher = SeededHash(k, self.hash_seed)

        # Phase 1: place every in-edge with its target, counting degrees.
        # Both phases are stateless hashes, so bulk evaluation over the
        # stream content matches the two-pass streaming behaviour exactly.
        edge_ids, sources, targets = edge_stream_arrays(stream)
        assignment = np.full(num_edges, -1, dtype=np.int32)
        assignment[edge_ids] = hasher(targets)
        in_degree = np.bincount(targets, minlength=num_vertices)

        # Phase 2: re-assign in-edges of high-degree vertices by source.
        high = in_degree > self.degree_threshold
        reassign = high[targets]
        if reassign.any():
            assignment[edge_ids[reassign]] = hasher(sources[reassign])

        masters = hasher(np.arange(num_vertices)).astype(np.int32)
        return EdgePartition(k, assignment, algorithm=self.name, masters=masters)
