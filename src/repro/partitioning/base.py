"""Partitioning result types and algorithm base classes.

The paper (Section 3) frames every SGP algorithm as a rule that places each
arriving stream element into the partition maximising an objective
``h(a_i, P^t)`` subject to a balance slack ``β``.  This module provides:

* :class:`VertexPartition` — a vertex-disjoint (edge-cut) result;
* :class:`EdgePartition` — an edge-disjoint (vertex-cut) result;
* :class:`VertexPartitioner` / :class:`EdgePartitioner` — base classes
  giving every algorithm the same two entry points:

  - ``partition_stream(stream, k, ...)`` — the true streaming interface
    (single pass over arrivals, bounded state);
  - ``partition(graph, k, order=..., seed=...)`` — convenience wrapper that
    builds the matching stream over an in-memory graph, which is how the
    experimental harness drives all algorithms uniformly.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Any, Iterable, Iterator

import numpy as np

from repro.errors import ConfigurationError, PartitioningError, ReproError
from repro.graph.digraph import Graph
from repro.graph.stream import EdgeStream, VertexStream
from repro.partitioning.kernels import iter_edge_chunks

UNASSIGNED = -1


def check_num_partitions(k: Any) -> int:
    """Validate a partition count."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
        raise ConfigurationError(f"number of partitions must be a positive int, got {k!r}")
    return int(k)


def check_finite_at_least(name: str, value: Any, minimum: float, *,
                          strict: bool = False,
                          error: type[ReproError] = ConfigurationError) -> None:
    """Raise *error* unless *value* is a finite number ``>= minimum``
    (``> minimum`` when *strict*), naming the parameter and the value.

    NaN fails every comparison, so a bare ``value < minimum`` guard lets
    it through.
    """
    if not (math.isfinite(value)
            and (value > minimum if strict else value >= minimum)):
        bound = ">" if strict else ">="
        raise error(
            f"{name} must be a finite number {bound} {minimum}, "
            f"got {value!r}")


def check_finite_entries(name: str, values: Any, *,
                         positive: bool = False) -> np.ndarray:
    """*values* as a float64 array whose entries are all finite and
    ``>= 0`` (``> 0`` when *positive*); otherwise raise, naming the
    first bad entry's index and value.
    """
    array = np.asarray(values, dtype=np.float64)
    ok = np.isfinite(array) & ((array > 0) if positive else (array >= 0))
    bad = np.flatnonzero(~ok)
    if bad.size:
        index = int(bad[0])
        bound = ">" if positive else ">="
        raise ConfigurationError(
            f"{name} {index} must be a finite number {bound} 0, "
            f"got {float(array.flat[index])!r}")
    return array


def _checked_assignment(values: Any, num_partitions: int,
                        what: str) -> np.ndarray:
    """Contiguous int32 copy of *values* with every entry in
    ``[0, num_partitions)`` or ``UNASSIGNED``."""
    array = np.ascontiguousarray(values, dtype=np.int32)
    if array.ndim != 1:
        raise PartitioningError(f"{what} must be a 1-D array")
    valid = array[array != UNASSIGNED]
    if valid.size and (valid.min() < 0 or valid.max() >= num_partitions):
        raise PartitioningError(f"{what} contains out-of-range partition ids")
    return array


class VertexPartition:
    """A vertex-disjoint partitioning (edge-cut model, Section 4.1).

    ``assignment[u]`` is the partition of vertex ``u`` (``UNASSIGNED`` for
    vertices never seen, which a complete run never produces).
    """

    cut_model = "edge-cut"

    def __init__(self, num_partitions: int, assignment: Any,
                 algorithm: str = "?") -> None:
        self.num_partitions = check_num_partitions(num_partitions)
        self.assignment = _checked_assignment(assignment, self.num_partitions,
                                              "assignment")
        self.algorithm = algorithm

    @property
    def num_vertices(self) -> int:
        return int(self.assignment.size)

    def sizes(self) -> np.ndarray:
        """Number of vertices per partition (w(P_i) of Eq. 3)."""
        assigned = self.assignment[self.assignment != UNASSIGNED]
        return np.bincount(assigned, minlength=self.num_partitions).astype(np.int64)

    def of(self, vertex: int) -> int:
        """Partition of *vertex*; raises if the vertex was never assigned."""
        part = int(self.assignment[vertex])
        if part == UNASSIGNED:
            raise PartitioningError(f"vertex {vertex} was never assigned")
        return part

    def is_complete(self) -> bool:
        """True when every vertex has a partition."""
        return bool(np.all(self.assignment != UNASSIGNED))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"VertexPartition(algorithm={self.algorithm!r}, "
                f"k={self.num_partitions}, n={self.num_vertices})")


class EdgePartition:
    """An edge-disjoint partitioning (vertex-cut model, Section 4.2).

    ``assignment[eid]`` is the partition of edge ``eid`` (edge ids are the
    positions in the source graph's edge arrays).  ``masters`` optionally
    records a designated master partition per vertex — hybrid-cut
    algorithms produce it; for everyone else the analytics placement layer
    picks masters itself.
    """

    cut_model = "vertex-cut"

    def __init__(self, num_partitions: int, assignment: Any,
                 algorithm: str = "?", masters: Any = None) -> None:
        self.num_partitions = check_num_partitions(num_partitions)
        self.assignment = _checked_assignment(assignment, self.num_partitions,
                                              "assignment")
        self.algorithm = algorithm
        self.masters = (_checked_assignment(masters, self.num_partitions,
                                            "masters")
                        if masters is not None else None)

    @property
    def num_edges(self) -> int:
        return int(self.assignment.size)

    def sizes(self) -> np.ndarray:
        """Number of edges per partition (w(P_i) of Eq. 6)."""
        assigned = self.assignment[self.assignment != UNASSIGNED]
        return np.bincount(assigned, minlength=self.num_partitions).astype(np.int64)

    def of(self, edge_id: int) -> int:
        """Partition of *edge_id*; raises if the edge was never assigned."""
        part = int(self.assignment[edge_id])
        if part == UNASSIGNED:
            raise PartitioningError(f"edge {edge_id} was never assigned")
        return part

    def is_complete(self) -> bool:
        return bool(np.all(self.assignment != UNASSIGNED))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"EdgePartition(algorithm={self.algorithm!r}, "
                f"k={self.num_partitions}, m={self.num_edges})")


class VertexPartitioner(ABC):
    """Base class for edge-cut SGP algorithms consuming vertex streams."""

    #: Registry name (the paper's acronym), set by subclasses.
    name = "?"

    @abstractmethod
    def partition_stream(self, stream: Iterable, num_partitions: int, *,
                         num_vertices: int) -> VertexPartition:
        """Single pass over a vertex stream; returns the partitioning.

        ``num_vertices`` is required because the balance terms of LDG and
        FENNEL need the partition capacity ``C = β|V|/k`` — exactly the
        synopsis streaming systems know ahead of a bulk load.
        """

    def partition(self, graph: Graph, num_partitions: int, *,
                  order: str = "random", seed: Any = None) -> VertexPartition:
        """Partition an in-memory graph by streaming it in *order*."""
        stream = VertexStream(graph, order=order, seed=seed)
        return self.partition_stream(stream, num_partitions,
                                     num_vertices=graph.num_vertices)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class EdgePartitioner(ABC):
    """Base class for vertex-cut / hybrid SGP algorithms on edge streams."""

    name = "?"

    @abstractmethod
    def partition_stream(self, stream: Iterable, num_partitions: int, *,
                         num_vertices: int, num_edges: int) -> EdgePartition:
        """Single pass over an edge stream; returns the partitioning."""

    def partition(self, graph: Graph, num_partitions: int, *,
                  order: str = "random", seed: Any = None) -> EdgePartition:
        """Partition an in-memory graph by streaming its edges in *order*."""
        stream = EdgeStream(graph, order=order, seed=seed)
        return self.partition_stream(stream, num_partitions,
                                     num_vertices=graph.num_vertices,
                                     num_edges=graph.num_edges)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


def iter_edge_arrivals(stream: Iterable) -> Iterator[tuple[int, int, int]]:
    """Yield ``(edge_id, src, dst)`` Python-int tuples of an edge stream,
    flattened from :func:`~repro.partitioning.kernels.iter_edge_chunks`
    so no per-arrival object is built."""
    for edge_ids, src, dst in iter_edge_chunks(stream):
        yield from zip(edge_ids.tolist(), src.tolist(), dst.tolist())


def edge_stream_arrays(
        stream: Iterable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Materialise an edge stream as ``(edge_ids, src, dst)`` arrays, the
    concatenated :func:`~repro.partitioning.kernels.iter_edge_chunks`
    (three empty int64 arrays for an empty stream).

    Used by the *stateless* hash partitioners (VCR, DBH-exact, HCR), whose
    placement of one edge never depends on another — bulk evaluation is
    semantically identical to element-at-a-time processing — and by
    Ginger, which groups the whole stream by target.
    """
    empty = np.zeros(0, dtype=np.int64)
    chunks = list(iter_edge_chunks(stream)) or [(empty, empty, empty)]
    edge_ids, src, dst = (np.concatenate(parts) for parts in zip(*chunks))
    return edge_ids, src, dst


def argmin_with_ties(values: np.ndarray,
                     rng: np.random.Generator | None = None) -> int:
    """Index of the minimum, breaking ties uniformly at random when *rng*
    is given (deterministically taking the first otherwise)."""
    values = np.asarray(values)
    best = values.min()
    ties = np.flatnonzero(values == best)
    if ties.size == 1 or rng is None:
        return int(ties[0])
    return int(ties[rng.integers(0, ties.size)])


def argmax_with_ties(values: np.ndarray, tie_break: np.ndarray | None = None,
                     rng: np.random.Generator | None = None) -> int:
    """Index of the maximum of *values*.

    Ties are broken by the smallest *tie_break* value (typically current
    partition load — the convention of Stanton & Kliot), then uniformly at
    random when *rng* is given.
    """
    values = np.asarray(values)
    best = values.max()
    ties = np.flatnonzero(values == best)
    if ties.size == 1:
        return int(ties[0])
    if tie_break is not None:
        sub = np.asarray(tie_break)[ties]
        ties = ties[sub == sub.min()]
        if ties.size == 1:
            return int(ties[0])
    if rng is None:
        return int(ties[0])
    return int(ties[rng.integers(0, ties.size)])
