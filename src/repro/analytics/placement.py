"""Distributed placement derived from a partitioning.

PowerLyra (and every GAS system) materialises a partitioning as:

* each **edge** lives on exactly one machine;
* each **vertex** has one **master** replica and zero or more **mirrors**
  — one on every other machine that stores an incident edge.

:class:`Placement` computes that geometry once, for *any* partitioning
produced by this package:

* an :class:`~repro.partitioning.base.EdgePartition` is used directly
  (native vertex-cut / hybrid-cut);
* a :class:`~repro.partitioning.base.VertexPartition` is first converted
  by the Appendix-B rule (out-edges follow their source, the edge-cut
  partition is the master) via
  :func:`repro.partitioning.conversion.edge_cut_to_edge_partition`.

All communication accounting in :mod:`repro.analytics.engine` is a pure
function of this geometry, which is the paper's central modelling claim
(replication factor ⇔ network traffic).
"""

from __future__ import annotations

import numpy as np

from repro.errors import PartitioningError
from repro.graph.digraph import Graph
from repro.graph.sorting import sorted_unique
from repro.partitioning.base import EdgePartition, VertexPartition
from repro.partitioning.conversion import edge_cut_to_edge_partition
from repro.rng import SeededHash


class Placement:
    """Master/mirror geometry of a partitioned graph.

    Attributes
    ----------
    edge_parts:
        Partition of every edge, aligned with the graph's edge ids.
    master:
        Master partition of every vertex.
    mirror_counts_all:
        ``|A(v) ∪ {master}| - 1`` — mirrors across *all* incident edges.
    mirror_counts_out:
        Mirrors among partitions holding v's *out*-edges only — what a
        changed vertex must update for uni-directional (gather-in /
        scatter-out) workloads such as PageRank and SSSP.
    """

    def __init__(self, graph: Graph, partition, *, master_seed: int = 7):
        if isinstance(partition, VertexPartition):
            edge_partition = edge_cut_to_edge_partition(graph, partition)
        elif isinstance(partition, EdgePartition):
            edge_partition = partition
        else:
            raise PartitioningError(
                f"unsupported partition type {type(partition).__name__}"
            )
        if not edge_partition.is_complete():
            raise PartitioningError("placement requires a complete partitioning")
        if edge_partition.num_edges != graph.num_edges:
            raise PartitioningError("partition does not cover the graph's edges")

        self.graph = graph
        self.algorithm = edge_partition.algorithm
        self.num_partitions = edge_partition.num_partitions
        self.edge_parts = edge_partition.assignment.astype(np.int64)
        #: Whether the hosting engine performs locality-aware mirror sync.
        #: Placements with explicit masters come from PowerLyra-style
        #: differentiated engines (the Appendix-B edge-cut emulation and
        #: the hybrid-cut engine), which only refresh mirrors that will
        #: read the value; raw vertex-cut placements run on a
        #: PowerGraph-style engine that updates every mirror after apply.
        self.locality_aware = edge_partition.masters is not None

        k = self.num_partitions
        n = graph.num_vertices

        # Distinct (vertex, partition) incidence pairs, both endpoints.
        all_pairs = sorted_unique(np.concatenate([
            graph.src * k + self.edge_parts,
            graph.dst * k + self.edge_parts,
        ]))
        out_pairs = sorted_unique(graph.src * k + self.edge_parts)

        incidence_counts = np.bincount(all_pairs // k, minlength=n)

        # Masters: explicit (hybrid / converted edge-cut), kept as given
        # also for isolated vertices, or balanced placement among the
        # partitions already hosting the vertex.
        if edge_partition.masters is not None:
            self.master = edge_partition.masters.astype(np.int64)
            if self.master.shape != (n,) or (self.master < 0).any():
                raise PartitioningError(
                    "explicit masters must name a partition for every vertex")
        else:
            self.master = self._balanced_masters(all_pairs, k, n)
            # An isolated vertex hosts no partition to choose among, so
            # it gets a deterministic hash master.
            isolated = np.flatnonzero(incidence_counts == 0)
            if isolated.size:
                self.master[isolated] = SeededHash(k, master_seed)(isolated)

        self.mirror_counts_all = self._mirror_counts(all_pairs, k, n)
        self.mirror_counts_out = self._mirror_counts(out_pairs, k, n)
        #: |A(v)| including the master replica; 1 for isolated vertices.
        self.replica_counts = self.mirror_counts_all + 1
        #: Sorted (vertex * k + partition) incidence pairs, kept for the
        #: engine's per-iteration mirror-update accounting.
        self.all_pairs = all_pairs
        self.out_pairs = out_pairs

    def _balanced_masters(self, all_pairs: np.ndarray, k: int,
                          n: int) -> np.ndarray:
        """Balanced master placement among each vertex's partitions.

        A master is a communication hub: it receives one gather partial
        from (and sends one update to) every mirror.  Placing the masters
        of high-replication vertices greedily on the least-loaded member
        of ``A(v)`` spreads that traffic — the "balanced master
        assignment" optimisation of GAS systems.  (At the paper's scale
        hash placement achieves the same in expectation, because tens of
        thousands of hub masters average out over 128 machines; at this
        repo's scale the greedy spread stands in for that averaging.)
        """
        vertices, parts = np.divmod(all_pairs, k)   # sorted by vertex
        counts = np.bincount(vertices, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])

        # |A(v)| = 1: no choice and no mirror traffic, so no load either.
        # Isolated vertices (|A(v)| = 0) keep 0 and are hashed by the
        # caller.
        master = np.zeros(n, dtype=np.int64)
        single = counts == 1
        master[single] = parts[indptr[:-1][single]]
        # Multi-partition vertices, heaviest-replicated first (ties by
        # vertex id), greedily on the least-loaded member of A(v); a load
        # tie goes to the lowest partition id, the first minimum ``min``
        # meets in A(v)'s ascending list.
        multi = np.flatnonzero(counts > 1)
        multi = multi[np.argsort(-counts[multi], kind="stable")]
        starts = indptr[multi].tolist()
        ends = indptr[multi + 1].tolist()
        part_list = parts.tolist()
        load = [0] * k
        choices = []
        for lo, hi in zip(starts, ends):
            choice = min(part_list[lo:hi], key=load.__getitem__)
            choices.append(choice)
            load[choice] += hi - lo - 1   # mirrors generate the traffic
        master[multi] = choices
        return master

    def _mirror_counts(self, pairs: np.ndarray, k: int, n: int) -> np.ndarray:
        """#partitions in *pairs* per vertex, excluding the master."""
        vertices = pairs // k
        parts = pairs % k
        counts = np.bincount(vertices, minlength=n)
        master_hits = np.bincount(vertices[parts == self.master[vertices]],
                                  minlength=n)
        return counts - master_hits

    # ------------------------------------------------------------------
    # Summary statistics
    # ------------------------------------------------------------------
    def replication_factor(self, include_isolated: bool = False) -> float:
        """Average replicas per vertex (master + mirrors)."""
        counts = self.replica_counts
        if not include_isolated:
            active = self.graph.degree > 0
            counts = counts[active]
        return float(counts.mean()) if counts.size else 0.0

    def edges_per_partition(self) -> np.ndarray:
        """Stored edges per machine (the vertex-cut load w(P_i))."""
        return np.bincount(self.edge_parts, minlength=self.num_partitions)

    def masters_per_partition(self) -> np.ndarray:
        """Master vertices per machine (the edge-cut load w(P_i))."""
        return np.bincount(self.master, minlength=self.num_partitions)

    def replicas_per_partition(self) -> np.ndarray:
        """Vertex replicas per machine — the memory-footprint indicator."""
        k = self.num_partitions
        pairs = sorted_unique(np.concatenate([
            self.graph.src * k + self.edge_parts,
            self.graph.dst * k + self.edge_parts,
            np.arange(self.graph.num_vertices, dtype=np.int64) * k + self.master,
        ]))
        return np.bincount(pairs % k, minlength=k)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Placement(algorithm={self.algorithm!r}, "
                f"k={self.num_partitions}, rf={self.replication_factor():.2f})")
