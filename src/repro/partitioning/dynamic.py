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
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigurationError, PartitioningError
from repro.graph.digraph import Graph
from repro.partitioning.base import (
    UNASSIGNED,
    VertexPartition,
    argmax_with_ties,
    check_finite_at_least,
)
from repro.rng import make_rng


class IncrementalEdgeCutPartitioner:
    """Place newly arriving vertices into an existing partitioning.

    Parameters
    ----------
    base:
        The current :class:`VertexPartition` (its assignment array is not
        modified; placements accumulate in a copy).
    balance_slack:
        β against the *final* expected vertex count, supplied per call.
    """

    def __init__(self, base: VertexPartition, balance_slack: float = 1.1,
                 seed=None):
        check_finite_at_least("balance_slack (beta)", balance_slack, 1)
        if not base.is_complete():
            raise PartitioningError("base partitioning must be complete")
        self.num_partitions = base.num_partitions
        self.balance_slack = balance_slack
        self.seed = seed
        self._assignment = base.assignment.copy()
        self._sizes = base.sizes().astype(np.int64)

    @property
    def assignment(self) -> np.ndarray:
        return self._assignment

    def add_vertex(self, neighbors, rng=None) -> int:
        """Place one new vertex given its (already-placed) neighbours.

        ``neighbors`` may reference vertices that are themselves new; the
        unplaced ones are simply ignored, exactly like a streaming pass.
        Returns the chosen partition.
        """
        k = self.num_partitions
        rng = make_rng(rng if rng is not None else self.seed)
        total = int(self._sizes.sum()) + 1
        capacity = max(1.0, math.ceil(self.balance_slack * total / k))
        neighbors = np.asarray(neighbors, dtype=np.int64)
        if neighbors.size and int(neighbors.min()) < 0:
            # A negative id would wrap-index into the assignment array and
            # silently score against an arbitrary vertex's partition.
            raise PartitioningError(
                f"neighbor ids must be >= 0, got {int(neighbors.min())}")
        in_range = neighbors[neighbors < self._assignment.size]
        placed = self._assignment[in_range]
        placed = placed[placed != UNASSIGNED]
        if placed.size:
            counts = np.bincount(placed, minlength=k).astype(np.float64)
        else:
            counts = np.zeros(k, dtype=np.float64)
        scores = counts * (1.0 - self._sizes / capacity)
        target = argmax_with_ties(scores, tie_break=self._sizes, rng=rng)
        self._assignment = np.append(self._assignment, np.int32(target))
        self._sizes[target] += 1
        return int(target)

    def require_covers(self, graph: Graph) -> None:
        """Raise unless the accumulated assignment covers *graph* exactly.

        Guards the refinement path of the online service: a materialised
        graph whose vertex count diverged from the placement state would
        otherwise mis-index silently.
        """
        if self._assignment.size != graph.num_vertices:
            raise PartitioningError(
                f"assignment covers {self._assignment.size} vertices but "
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
        if int(vertices.min()) < 0 or \
                int(vertices.max()) >= self._assignment.size:
            raise PartitioningError(
                f"move targets vertices outside the assignment "
                f"(size {self._assignment.size})")
        if int(targets.min()) < 0 or int(targets.max()) >= self.num_partitions:
            raise ConfigurationError(
                f"target partitions must be in [0, {self.num_partitions})")
        old = self._assignment[vertices].astype(np.int64)
        self._sizes -= np.bincount(old, minlength=self.num_partitions)
        self._sizes += np.bincount(targets, minlength=self.num_partitions)
        self._assignment[vertices] = targets.astype(np.int32)

    def to_partition(self, algorithm: str = "ldg-incr") -> VertexPartition:
        """Snapshot the accumulated assignment."""
        return VertexPartition(self.num_partitions, self._assignment.copy(),
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

    total_moved = 0
    for _pass in range(max_passes):
        if total_moved >= budget:
            break
        boundary = _boundary_vertices(graph, assignment)
        if boundary.size == 0:
            break
        moved = 0
        for u in rng.permutation(boundary).tolist():
            if total_moved >= budget:
                break
            current = assignment[u]
            neighbor_parts = assignment[graph.neighbors(u)]
            gain_to = np.bincount(neighbor_parts, minlength=k).astype(np.float64)
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
                total_moved += 1
        if moved == 0:
            break
    return VertexPartition(k, assignment,
                           algorithm=f"{partition.algorithm}+hermes")


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
    algorithm = f"{partition.algorithm}+failover"
    if lost.size == 0:
        return VertexPartition(k, assignment, algorithm=algorithm)
    assignment[lost] = UNASSIGNED
    survivors = assignment[assignment != UNASSIGNED]
    sizes = np.bincount(survivors, minlength=k).astype(np.int64)
    capacity = max(1.0, math.ceil(
        balance_slack * graph.num_vertices / (k - 1)))
    # Exclude the dead partition from both score and tie-break.
    dead_penalty = np.zeros(k)
    dead_penalty[lost_part] = -np.inf
    for u in lost.tolist():
        neighbor_parts = assignment[graph.neighbors(u)]
        neighbor_parts = neighbor_parts[neighbor_parts != UNASSIGNED]
        counts = np.bincount(neighbor_parts, minlength=k).astype(np.float64)
        scores = counts * (1.0 - sizes / capacity) + dead_penalty
        target = argmax_with_ties(scores, tie_break=sizes, rng=rng)
        assignment[u] = target
        sizes[target] += 1
    return VertexPartition(k, assignment, algorithm=algorithm)


def _boundary_vertices(graph: Graph, assignment: np.ndarray) -> np.ndarray:
    """Vertices with at least one neighbour in another partition."""
    cross = assignment[graph.src] != assignment[graph.dst]
    if not cross.any():
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate([graph.src[cross], graph.dst[cross]]))
