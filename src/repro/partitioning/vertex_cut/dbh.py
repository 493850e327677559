"""Degree-Based Hashing (DBH) — Xie et al., NeurIPS 2014.

Assigns edge ``(u, v)`` to ``h(u)`` if ``d(u) < d(v)`` else ``h(v)``:
cutting through the *higher*-degree endpoint preserves the locality of
low-degree vertices while the few hubs absorb the replication, which is
why DBH's expected replication factor *improves* as degree skew grows
(Section 4.2.2).

The paper notes DBH "relies on a priori knowledge of degree information".
We support both modes: exact degrees (taken from the stream's backing
graph, the bulk-load setting) and partial degrees counted on the fly (the
pure-streaming setting), selected by ``degrees="exact"|"partial"``.
Partial mode runs chunk-at-a-time against a pluggable degree state
(exact counters or a count-min sketch via ``state=``) through
:class:`DbhCore`, so it also drives the out-of-core/sharded ingest path.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.partitioning.base import (
    EdgePartition,
    check_num_partitions,
    edge_stream_arrays,
)
from repro.partitioning.degree_state import (
    DEFAULT_SKETCH_DEPTH,
    DEFAULT_SKETCH_WIDTH,
)
from repro.partitioning.drivers import DegreeStatePartitioner
from repro.rng import SeededHash


class DbhCore:
    """Chunk-driven partial-degree DBH: hash the lower-degree endpoint.

    DBH never reads partition loads, so ``rebase_sizes`` is a no-op —
    present only so the sharded driver can treat every core uniformly.
    """

    algorithm = "dbh"

    def __init__(self, num_partitions: int, hash_seed: int, *,
                 degrees) -> None:
        self.k = int(num_partitions)
        self.hasher = SeededHash(self.k, hash_seed)
        self.degrees = degrees
        self.sizes = np.zeros(self.k, dtype=np.int64)

    def rebase_sizes(self, global_sizes: np.ndarray) -> None:
        np.copyto(self.sizes, global_sizes)

    def state_nbytes(self) -> int:
        return int(self.sizes.nbytes + self.degrees.nbytes)

    def process_chunk(self, edge_ids: np.ndarray, src_arr: np.ndarray,
                      dst_arr: np.ndarray, assignment: np.ndarray) -> None:
        d_u, d_v = self.degrees.push(src_arr, dst_arr)
        lower = np.where(d_u < d_v, src_arr, dst_arr)
        choices = self.hasher(lower)
        assignment[edge_ids] = choices
        self.sizes += np.bincount(choices, minlength=self.k)


class DbhPartitioner(DegreeStatePartitioner):
    """Degree-Based Hashing vertex-cut streaming partitioner."""

    name = "dbh"

    def __init__(self, hash_seed: int = 0, degrees: str = "exact",
                 state: str = "exact",
                 sketch_width: int = DEFAULT_SKETCH_WIDTH,
                 sketch_depth: int = DEFAULT_SKETCH_DEPTH):
        if degrees not in ("exact", "partial"):
            raise ConfigurationError("degrees must be 'exact' or 'partial'")
        super().__init__(state, sketch_width, sketch_depth)
        self.hash_seed = hash_seed
        self.degrees = degrees

    def _make_core(self, k, num_vertices, num_edges, degrees):
        return DbhCore(k, self.hash_seed, degrees=degrees)

    def partition_stream(self, stream, num_partitions: int, *,
                         num_vertices: int, num_edges: int) -> EdgePartition:
        if self.degrees == "partial":
            # Reads only the counters a scalar loop would hold at each
            # arrival, accumulated chunk by chunk: file-backed streams
            # never materialise.
            return super().partition_stream(stream, num_partitions,
                                            num_vertices=num_vertices,
                                            num_edges=num_edges)
        k = check_num_partitions(num_partitions)
        graph = getattr(stream, "graph", None)
        if graph is None:
            raise ConfigurationError(
                "degrees='exact' needs a graph-backed stream; "
                "use degrees='partial' for external streams"
            )
        # With a-priori degrees the rule is stateless: bulk-evaluate.
        assignment = np.full(num_edges, -1, dtype=np.int32)
        hasher = SeededHash(k, self.hash_seed)
        degree = graph.degree
        edge_ids, src, dst = edge_stream_arrays(stream)
        lower = np.where(degree[src] < degree[dst], src, dst)
        assignment[edge_ids] = hasher(lower)
        return EdgePartition(k, assignment, algorithm=self.name)
