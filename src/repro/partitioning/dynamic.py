"""Dynamic partitioning: incremental placement and Hermes-style refinement.

Section 2 of the paper points at two classes of dynamic techniques this
module implements in their simplest faithful forms:

* **Incremental placement** — re-streaming algorithms "can simply be
  streamed again starting from the previous assignment" when the graph
  grows.  :class:`IncrementalEdgeCutPartitioner` scores *new* vertices
  with the LDG objective against an existing partitioning, which is how a
  bulk-loaded cluster absorbs arrivals without re-partitioning.

* **Hermes-style refinement** (Nicoara et al., EDBT 2015) — "dynamic
  refinement of an initial partitioning instead of re-partitioning the
  whole graph".  :func:`hermes_refine` runs iterative gain-driven vertex
  migration under a balance constraint on top of *any* edge-cut
  partitioning, improving the cut in place.

:func:`refine_boundary` is the refinement loop of both Hermes and TAPER
(:mod:`repro.partitioning.taper`); :func:`_ldg_target` is the LDG choice
of both incremental placement and :func:`reassign_lost_vertices`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigurationError, PartitioningError
from repro.graph.digraph import Graph
from repro.graph.sorting import sorted_unique
from repro.partitioning.base import (
    UNASSIGNED,
    VertexPartition,
    check_finite_at_least,
)
from repro.partitioning.kernels import argmax_tie_least_loaded
from repro.rng import make_rng


class IncrementalEdgeCutPartitioner:
    """Place newly arriving vertices into an existing partitioning.

    Parameters
    ----------
    base:
        The current :class:`VertexPartition` (its assignment array is not
        modified; placements accumulate in a copy, a buffer that doubles
        when full, so each arrival costs amortised O(1)).
    balance_slack:
        β of the running capacity: each :meth:`add_vertex` caps a
        partition at ``ceil(β·(placed + 1)/k)``, where ``placed`` counts
        the base's vertices and every arrival placed so far.
    """

    def __init__(self, base: VertexPartition, balance_slack: float = 1.1,
                 seed=None):
        check_finite_at_least("balance_slack (beta)", balance_slack, 1)
        if not base.is_complete():
            raise PartitioningError("base partitioning must be complete")
        self.num_partitions = base.num_partitions
        self.balance_slack = balance_slack
        self.seed = seed
        self._buffer = base.assignment.copy()
        self._placed = self._buffer.size
        self._sizes = base.sizes().astype(np.int64)

    @property
    def assignment(self) -> np.ndarray:
        """Every placed vertex's partition: a view of the buffer's prefix."""
        return self._buffer[:self._placed]

    def add_vertex(self, neighbors, rng=None) -> int:
        """Place one new vertex given its (already-placed) neighbours.

        ``neighbors`` may reference vertices that are themselves new; the
        unplaced ones are simply ignored, exactly like a streaming pass.
        The capacity is ``ceil(β·(placed + 1)/k)`` over the vertices
        placed so far, this one included.  Returns the chosen partition.
        """
        rng = make_rng(rng if rng is not None else self.seed)
        placed = int(self._sizes.sum()) + 1
        capacity = max(1.0, math.ceil(
            self.balance_slack * placed / self.num_partitions))
        neighbors = np.asarray(neighbors, dtype=np.int64)
        if neighbors.size and int(neighbors.min()) < 0:
            # A negative id would wrap-index into the assignment array and
            # silently score against an arbitrary vertex's partition.
            raise PartitioningError(
                f"neighbor ids must be >= 0, got {int(neighbors.min())}")
        in_range = neighbors[neighbors < self._placed]
        target = _ldg_target(self.assignment[in_range], self._sizes,
                             capacity, rng)
        if self._placed == self._buffer.size:
            grown = np.empty(max(1, 2 * self._placed), self._buffer.dtype)
            grown[:self._placed] = self._buffer
            self._buffer = grown
        self._buffer[self._placed] = target
        self._placed += 1
        self._sizes[target] += 1
        return target

    def require_covers(self, graph: Graph) -> None:
        """Raise unless the accumulated assignment covers *graph* exactly.

        Guards the refinement path of the online service: a materialised
        graph whose vertex count diverged from the placement state would
        otherwise mis-index silently.
        """
        if self._placed != graph.num_vertices:
            raise PartitioningError(
                f"assignment covers {self._placed} vertices but "
                f"graph {graph.name!r} has {graph.num_vertices}; place new "
                f"arrivals with add_vertex() before refining")

    def apply_moves(self, vertices, targets) -> None:
        """Re-home *vertices* to *targets*, keeping size counters in sync.

        The migration executor's entry point: a bounded
        :func:`hermes_refine` proposes moves, the service commits them
        here batch by batch.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        if vertices.shape != targets.shape:
            raise ConfigurationError("vertices and targets must align")
        if vertices.size == 0:
            return
        if int(vertices.min()) < 0 or int(vertices.max()) >= self._placed:
            raise PartitioningError(
                f"move targets vertices outside the assignment "
                f"(size {self._placed})")
        if int(targets.min()) < 0 or int(targets.max()) >= self.num_partitions:
            raise ConfigurationError(
                f"target partitions must be in [0, {self.num_partitions})")
        assignment = self.assignment
        old = assignment[vertices].astype(np.int64)
        self._sizes -= np.bincount(old, minlength=self.num_partitions)
        self._sizes += np.bincount(targets, minlength=self.num_partitions)
        assignment[vertices] = targets.astype(np.int32)

    def to_partition(self, algorithm: str = "ldg-incr") -> VertexPartition:
        """Snapshot the accumulated assignment."""
        return VertexPartition(self.num_partitions, self.assignment.copy(),
                               algorithm=algorithm)


def hermes_refine(
    graph: Graph,
    partition: VertexPartition,
    *,
    balance_slack: float = 1.1,
    max_passes: int = 8,
    max_moves: int | None = None,
    seed=None,
) -> VertexPartition:
    """Iterative gain-driven refinement of an edge-cut partitioning.

    Each pass visits boundary vertices in random order and moves a vertex
    to the neighbouring partition with the largest positive gain (cut
    edges saved) whenever the balance constraint permits.  Converges when
    a pass moves nothing — typically a handful of passes.

    ``max_moves`` caps the total number of accepted moves — the online
    service's migration budget: each move is a vertex whose state must be
    shipped between workers, so refinement quality is bought at an
    explicit migration price.  ``None`` refines to convergence.

    Returns a new :class:`VertexPartition` (the input is not modified)
    whose cut is never worse than the input's.
    """
    return refine_boundary(graph, partition, None, balance_slack,
                           max_passes, max_moves, seed, "hermes")


def refine_boundary(graph: Graph, partition: VertexPartition,
                    edge_weights: np.ndarray | None, balance_slack: float,
                    max_passes: int, max_moves: int | None, seed,
                    label: str) -> VertexPartition:
    """The boundary refinement loop of Hermes and TAPER.

    Each pass visits the endpoints of cut edges (of positive weight) in
    random order and moves each to the partition its edges' weight
    favours most over its own, if that gain is positive and the target
    stays within ``β·|V|/k``.  ``edge_weights=None`` weighs every edge
    one (Hermes: cut edges saved); checking the weights is the caller's.
    """
    if partition.num_vertices != graph.num_vertices:
        raise PartitioningError(
            f"partition covers {partition.num_vertices} vertices but graph "
            f"{graph.name!r} has {graph.num_vertices}; refine against the "
            f"same materialisation the partition was built for")
    if not partition.is_complete():
        raise PartitioningError("cannot refine an incomplete partitioning")
    check_finite_at_least("balance_slack (beta)", balance_slack, 1)
    if max_moves is not None and max_moves < 0:
        raise ConfigurationError("max_moves must be >= 0 (or None)")
    rng = make_rng(seed)
    k = partition.num_partitions
    assignment = partition.assignment.copy()
    sizes = partition.sizes().astype(np.int64)
    capacity = max(1.0, balance_slack * graph.num_vertices / k)
    budget = math.inf if max_moves is None else max_moves
    src, dst = graph.src, graph.dst

    moved = 0
    for _pass in range(max_passes):
        if moved >= budget:
            break
        cross = assignment[src] != assignment[dst]
        if edge_weights is not None:
            cross &= edge_weights > 0
        if not cross.any():
            break
        boundary = sorted_unique(np.concatenate([src[cross], dst[cross]]))
        moved_before = moved
        for u in rng.permutation(boundary).tolist():
            if moved >= budget:
                break
            current = assignment[u]
            # neighbors(u): out-edges, then in-edges, each by edge id.
            weights = None if edge_weights is None else edge_weights[
                np.concatenate((graph.out_edge_ids(u), graph.in_edge_ids(u)))]
            gain_to = np.bincount(assignment[graph.neighbors(u)],
                                  weights=weights, minlength=k).astype(np.float64)
            gain_to -= gain_to[current]
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
        if moved == moved_before:
            break
    return VertexPartition(k, assignment,
                           algorithm=f"{partition.algorithm}+{label}")


def reassign_lost_vertices(
    graph: Graph,
    partition: VertexPartition,
    lost_part: int,
    *,
    balance_slack: float = 1.2,
    seed=None,
) -> VertexPartition:
    """Re-home every vertex of a failed partition onto the survivors.

    The fault-tolerance recovery path (see :mod:`repro.faults`): when a
    worker dies permanently, the vertices it mastered must be re-placed on
    the remaining ``k - 1`` partitions.  Each lost vertex is streamed (in
    id order — the order replicas re-read the failed worker's key range)
    and placed with the LDG objective restricted to surviving partitions,
    so the recovered placement's quality — and hence the migration traffic
    and post-recovery cut — depends on the partitioning under test.

    Returns a new :class:`VertexPartition` with the same ``k`` in which no
    vertex is assigned to *lost_part*.
    """
    if not 0 <= lost_part < partition.num_partitions:
        raise ConfigurationError(
            f"lost_part must be in [0, {partition.num_partitions}), "
            f"got {lost_part}")
    if partition.num_partitions < 2:
        raise PartitioningError(
            "cannot recover a 1-partition placement: there is no survivor")
    if partition.num_vertices != graph.num_vertices:
        raise PartitioningError("partition does not cover the graph")
    if not partition.is_complete():
        raise PartitioningError("cannot recover an incomplete partitioning")
    rng = make_rng(seed)
    k = partition.num_partitions
    assignment = partition.assignment.copy()
    lost = np.flatnonzero(assignment == lost_part)
    assignment[lost] = UNASSIGNED
    survivors = assignment[assignment != UNASSIGNED]
    sizes = np.bincount(survivors, minlength=k).astype(np.int64)
    capacity = max(1.0, math.ceil(
        balance_slack * graph.num_vertices / (k - 1)))
    # Exclude the dead partition from both score and tie-break.
    dead_penalty = np.zeros(k)
    dead_penalty[lost_part] = -np.inf
    for u in lost.tolist():
        target = _ldg_target(assignment[graph.neighbors(u)], sizes,
                             capacity, rng, dead_penalty)
        assignment[u] = target
        sizes[target] += 1
    return VertexPartition(k, assignment,
                           algorithm=f"{partition.algorithm}+failover")


def _ldg_target(neighbor_parts: np.ndarray, sizes: np.ndarray,
                capacity: float, rng: np.random.Generator,
                penalty: np.ndarray | None = None) -> int:
    """LDG against a partial placement: ``counts * (1 - sizes /
    capacity)`` over the placed neighbours' partitions, plus *penalty*
    (``-inf`` rules a partition out); ties to the least loaded, then
    *rng*."""
    placed = neighbor_parts[neighbor_parts != UNASSIGNED]
    counts = np.bincount(placed, minlength=sizes.size).astype(np.float64)
    scores = counts * (1.0 - sizes / capacity)
    if penalty is not None:
        scores += penalty
    return argmax_tie_least_loaded(scores, sizes, rng)
