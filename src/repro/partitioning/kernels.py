"""Vectorized scoring kernels for the streaming hot loops.

Every SGP algorithm in the paper is a per-arrival ``argmax h(a_i, P^t)``
(Section 3), and this repo's measured ingestion rate (Section 6.1) is
dominated by how cheaply that per-arrival scoring runs.  The original
implementations allocated a fresh ``np.bincount``/score array and
re-derived the whole load-penalty vector on *every* stream element; this
module replaces those loops with preallocated, fused kernels shared by
the edge-cut family (LDG, FENNEL and their restreamed variants) and
batched helpers for the vertex-cut family (HDRF, DBH, Grid,
PowerGraph-greedy):

* :class:`LdgKernel` / :class:`FennelKernel` — preallocated score /
  count / penalty buffers reused across arrivals, with the load penalty
  maintained *incrementally* (only the partition that just gained a
  vertex is touched) and fused in-place score computation
  (``counts - penalty(sizes)`` via ``np.subtract(..., out=...)``);
* :func:`iter_vertex_arrivals` — CSR fast path over a graph-backed
  vertex stream that skips per-arrival ``VertexArrival`` construction;
* :func:`streaming_partial_degrees` — the partial-degree counters a
  sequential edge loop would maintain, computed for the whole stream in
  one vectorized pass (used by HDRF's θ term, DBH-partial and greedy);
* :func:`iter_edge_chunks` — the one reader of edge streams, so the
  sequential vertex-cut loops convert numpy → Python scalars one block
  at a time instead of materialising three stream-length lists;
* :class:`ReplicaMasks` — the per-vertex replica sets ``A(v)`` of the
  HDRF and greedy cores as ``ceil(k/64)`` ``uint64`` words per vertex,
  read and written as one Python ``int`` and enumerated through per-byte
  member tables, so a scan visits only the partitions in a mask;
* :func:`argmax_tie_least_loaded` / :func:`pick_least_loaded` —
  allocation-light tie-breaking, bit-identical (including RNG
  consumption) to :func:`repro.partitioning.base.argmax_with_ties` with
  a least-loaded tie break and
  :func:`repro.partitioning.base.argmin_with_ties`.

Every kernel is a pure performance change: the golden-digest equivalence
suite (``tests/test_partitioning_kernels.py``) asserts that ported
partitioners produce **bit-identical** assignments to the pre-kernel
reference implementations (:mod:`repro.partitioning._reference`) for
every (algorithm, seed, stream order) pair in its matrix.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator

import numpy as np

from repro.graph.digraph import Graph
from repro.tools import sanitize

__all__ = [
    "DEFAULT_EDGE_CHUNK",
    "FennelKernel",
    "LdgKernel",
    "ReplicaMasks",
    "argmax_tie_least_loaded",
    "iter_edge_chunks",
    "iter_vertex_arrivals",
    "pick_least_loaded",
    "streaming_partial_degrees",
]

#: Edges converted from numpy to Python scalars per block in the
#: sequential vertex-cut loops.  Large enough to amortise the ``tolist``
#: call, small enough to keep the transient lists cache-friendly.
DEFAULT_EDGE_CHUNK = 16384


# ----------------------------------------------------------------------
# Stream iteration fast paths
# ----------------------------------------------------------------------
def iter_vertex_arrivals(stream: Iterable) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(vertex, neighbors)`` pairs from a vertex stream, cheaply.

    Graph-backed :class:`~repro.graph.stream.VertexStream` objects expose
    their permutation and backing graph, letting us slice the undirected
    CSR directly and skip per-arrival ``VertexArrival`` construction and
    ``Graph.neighbors`` method dispatch.  The yielded neighbour arrays
    are views of the same CSR slices the stream itself would produce.
    Any other iterable of ``(vertex, neighbors)``-shaped elements works
    too (the generic path).
    """
    graph = getattr(stream, "graph", None)
    permutation = getattr(stream, "permutation", None)
    if isinstance(graph, Graph) and permutation is not None:
        indptr, indices = graph.undirected_csr()
        starts = indptr.tolist()
        for u in permutation.tolist():
            yield u, indices[starts[u]:starts[u + 1]]
    else:
        for arrival in stream:
            vertex, neighbors = arrival
            yield int(vertex), np.asarray(neighbors)


def iter_edge_chunks(
    stream: Iterable, chunk_size: int = DEFAULT_EDGE_CHUNK,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield ``(edge_ids, src, dst)`` array chunks of an edge stream.

    This is the one place that decides how an edge stream is read: the
    edge partitioners, :func:`~repro.partitioning.base.iter_edge_arrivals`
    and :func:`~repro.partitioning.base.edge_stream_arrays` all read
    through it.  A stream that can produce arrays offers
    ``iter_chunks(chunk_size)`` and its chunks pass through unchanged —
    a graph-backed :class:`~repro.graph.stream.EdgeStream` slices its
    permutation, a ``.redg`` :class:`repro.ingest.EdgeStreamFile` reads
    off its memory map.  Any other iterable of ``(edge_id, src, dst)``
    elements is buffered one chunk at a time.  Either way arrival order
    is preserved and peak extra memory is ``O(chunk_size)``.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    own_chunks = getattr(stream, "iter_chunks", None)
    if callable(own_chunks):
        yield from own_chunks(chunk_size)
        return
    ids: list = []
    srcs: list = []
    dsts: list = []
    for arrival in stream:
        edge_id, u, v = arrival
        ids.append(edge_id)
        srcs.append(u)
        dsts.append(v)
        if len(ids) >= chunk_size:
            yield (np.asarray(ids, dtype=np.int64),
                   np.asarray(srcs, dtype=np.int64),
                   np.asarray(dsts, dtype=np.int64))
            ids, srcs, dsts = [], [], []
    if ids:
        yield (np.asarray(ids, dtype=np.int64),
               np.asarray(srcs, dtype=np.int64),
               np.asarray(dsts, dtype=np.int64))


def streaming_partial_degrees(
    src: np.ndarray, dst: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-arrival partial degrees, vectorized over the whole stream.

    Element ``i`` of the returned ``(d_src, d_dst)`` pair equals the
    counters a sequential loop would hold **after** incrementing both
    endpoints of edge ``i`` — exactly the state HDRF's θ term, DBH's
    partial mode and PowerGraph-greedy's degree comparison read.  A
    self-loop counts twice, matching two scalar increments.

    This is the whole-stream form; when the stream cannot be held in
    memory, :class:`repro.partitioning.degree_state.ExactDegreeTable`
    accumulates the identical counters chunk by chunk (bit-identical for
    any chunk layout) and is what the partitioners actually use.
    """
    from repro.partitioning.degree_state import run_inclusive_ranks

    m = int(src.size)
    if m == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy()
    interleaved = np.empty(2 * m, dtype=np.int64)
    interleaved[0::2] = src
    interleaved[1::2] = dst
    occurrences = run_inclusive_ranks(interleaved)
    d_src = occurrences[0::2] + (src == dst)
    d_dst = occurrences[1::2]
    return d_src, d_dst


# ----------------------------------------------------------------------
# Replica sets of the vertex-cut cores
# ----------------------------------------------------------------------
class _WideRows:
    """One vertex's ``width`` words of a :class:`ReplicaMasks` array as
    one Python ``int`` (little-endian: bit ``p`` is partition ``p``)."""

    def __init__(self, words: array[int], width: int) -> None:
        self._bytes = memoryview(words).cast("B")
        self._row = 8 * width

    def __getitem__(self, vertex: int) -> int:
        start = vertex * self._row
        return int.from_bytes(self._bytes[start:start + self._row], "little")

    def __setitem__(self, vertex: int, mask: int) -> None:
        start = vertex * self._row
        self._bytes[start:start + self._row] = mask.to_bytes(self._row,
                                                             "little")


class ReplicaMasks:
    """Replica sets ``A(v)`` as per-vertex bitmasks over *k* partitions.

    Each vertex holds ``ceil(k/64)`` ``uint64`` words in one
    ``array('Q')``; bit ``p`` of its mask is set once partition ``p``
    holds a replica.  ``rows[v]`` reads the whole mask as a Python
    ``int`` and ``rows[v] = mask`` writes it back: ``rows`` is the word
    array itself when one word suffices, a byte view otherwise.

    ``byte_tables`` pairs each mask byte's shift with the table mapping
    that byte's value to the tuple of partitions it sets, so
    ``for table, shift in byte_tables: table[mask >> shift & 255]``
    visits the members of a mask in increasing order.  The tables are
    built per instance: they depend only on *k*.
    """

    def __init__(self, num_partitions: int, num_vertices: int) -> None:
        k = int(num_partitions)
        width = (k + 63) // 64
        self.words = array("Q", [0]) * (width * int(num_vertices))
        self.rows: array[int] | _WideRows = (
            self.words if width == 1 else _WideRows(self.words, width))
        self.byte_tables: tuple[tuple[tuple[tuple[int, ...], ...], int],
                                ...] = tuple(
            (tuple(tuple(p for p in range(8 * j, min(8 * j + 8, k))
                         if value >> (p - 8 * j) & 1)
                   for value in range(256)), 8 * j)
            for j in range((k + 7) // 8))
        #: ``bits[p] == 1 << p``, looked up instead of allocated.
        self.bits = [1 << p for p in range(k)]
        #: Every partition's bit: the candidate set of an edge whose
        #: endpoints have no replica yet.
        self.everyone = (1 << k) - 1

    @property
    def nbytes(self) -> int:
        """Bytes of mask state held: ``8·ceil(k/64)`` per vertex."""
        return self.words.itemsize * len(self.words)

    def members(self, mask: int) -> list[int]:
        """The partitions set in *mask*, in increasing order."""
        return [p for table, shift in self.byte_tables
                for p in table[mask >> shift & 255]]


# ----------------------------------------------------------------------
# Tie-breaking (bit-identical to the base helpers, fewer allocations)
# ----------------------------------------------------------------------
def argmax_tie_least_loaded(
    scores: np.ndarray, sizes: np.ndarray,
    rng: np.random.Generator | None,
) -> int:
    """Index of the max score; ties to the least-loaded partition, then RNG.

    Semantically identical — including *when* the RNG is consumed — to
    ``argmax_with_ties(scores, tie_break=sizes, rng=rng)``.  The k-wide
    vectors are scanned as Python scalars: at the small k of the paper's
    experiments, one ``tolist`` plus a scalar loop is several times
    cheaper than the ``max``/``flatnonzero``/fancy-index sequence, and
    scalar float comparison is the same IEEE-754 comparison numpy
    performs elementwise.
    """
    values = scores.tolist()
    best = values[0]
    ties = [0]
    for i in range(1, len(values)):
        value = values[i]
        if value > best:
            best = value
            ties = [i]
        elif value == best:
            ties.append(i)
    if len(ties) == 1:
        return ties[0]
    return pick_least_loaded(ties, sizes.tolist(), rng)


def pick_least_loaded(candidates: list[int], loads: list[int],
                      rng: np.random.Generator | None) -> int:
    """The least-loaded of *candidates* (increasing partition ids); ties
    broken uniformly at random when *rng* is given.

    Equal, including RNG consumption, to
    ``candidates[argmin_with_ties(sizes[candidates], rng)]``.  Grid,
    greedy, HDRF and :func:`argmax_tie_least_loaded` pick with it.
    """
    lightest = min([loads[p] for p in candidates])
    ties = [p for p in candidates if loads[p] == lightest]
    if len(ties) == 1 or rng is None:
        return ties[0]
    return ties[int(rng.integers(0, len(ties)))]


# ----------------------------------------------------------------------
# Edge-cut scoring kernels (vertex streams)
# ----------------------------------------------------------------------
class _EdgeCutKernel:
    """Shared preallocated state for vertex-stream scoring kernels.

    Vertex placements live in ``slots``: ``slots[v] == k`` means "not yet
    placed".  Mapping the unplaced sentinel to bucket ``k`` lets
    neighbour counting be a single ``bincount(minlength=k + 1)`` whose
    overflow bucket absorbs unplaced neighbours — no mask, no filtered
    copy per arrival.

    ``tie_key`` is the vector the driver breaks score ties on (lowest
    first).  It is ``sizes`` itself — Stanton & Kliot's least-loaded
    rule — unless a variant's ``place`` maintains another one.
    """

    def __init__(self, num_partitions: int, num_vertices: int) -> None:
        self.k = int(num_partitions)
        self.num_vertices = int(num_vertices)
        self.slots = np.full(self.num_vertices, self.k, dtype=np.int64)
        #: The previous restreaming pass's slots (all unplaced in pass 0).
        self.previous_slots = self.slots
        self.sizes = np.zeros(self.k, dtype=np.int64)
        self.tie_key: np.ndarray = self.sizes
        self.scores = np.empty(self.k, dtype=np.float64)

    def neighbor_counts(self, neighbors: np.ndarray) -> np.ndarray:
        """|P_i ∩ N(u)| for all i (bucket ``k`` = unplaced, ignored)."""
        return np.bincount(self.slots[neighbors], minlength=self.k + 1)

    def mixed_counts(self, neighbors: np.ndarray) -> np.ndarray:
        """Neighbour counts against the restreaming mixed view.

        Neighbours already re-assigned in the current pass use their
        fresh slot; everyone else falls back to the previous pass's
        (Nishimura & Ugander's update rule).
        """
        fresh = self.slots[neighbors]
        stale = self.previous_slots[neighbors]
        view = np.where(fresh != self.k, fresh, stale)
        return np.bincount(view, minlength=self.k + 1)

    def begin_pass(self) -> None:
        """Start a restreaming pass: keep the placements as the previous
        pass and refill placements and loads from empty."""
        self.previous_slots = self.slots.copy()
        self.slots.fill(self.k)
        self.sizes.fill(0)
        self.tie_key.fill(0)

    def export_assignment(self) -> np.ndarray:
        """Slots as an ``int32`` assignment with the UNASSIGNED sentinel."""
        from repro.partitioning.base import UNASSIGNED

        if sanitize.ACTIVE:
            sanitize.check_sizes(self.sizes,
                                 "kernels._EdgeCutKernel.export_assignment")
        assignment = np.where(self.slots == self.k, UNASSIGNED, self.slots)
        return assignment.astype(np.int32)


class LdgKernel(_EdgeCutKernel):
    """Fused LDG objective: ``counts * (1 - sizes / capacity)`` (Eq. 4).

    The multiplicative availability term ``1 - |P_i| / C`` changes only
    for the partition that just gained a vertex, so it is maintained
    incrementally and the per-arrival score is a single in-place
    ``np.multiply`` into the preallocated buffer.
    """

    def __init__(self, num_partitions: int, num_vertices: int,
                 capacity: float) -> None:
        super().__init__(num_partitions, num_vertices)
        self.capacity = float(capacity)
        self._availability = np.ones(self.k, dtype=np.float64)

    def score_counts(self, counts: np.ndarray) -> np.ndarray:
        if sanitize.ACTIVE:
            sanitize.check_no_alias(self.scores, counts,
                                    "kernels.LdgKernel.score_counts")
        np.multiply(counts[:self.k], self._availability, out=self.scores)
        if sanitize.ACTIVE:
            sanitize.check_scores(self.scores,
                                  "kernels.LdgKernel.score_counts")
        return self.scores

    def score(self, neighbors: np.ndarray) -> np.ndarray:
        return self.score_counts(self.neighbor_counts(neighbors))

    def place(self, vertex: int, target: int) -> None:
        self.slots[vertex] = target
        size = int(self.sizes[target]) + 1
        self.sizes[target] = size
        self._availability[target] = 1.0 - size / self.capacity

    def begin_pass(self) -> None:
        super().begin_pass()
        self._availability.fill(1.0)


class FennelKernel(_EdgeCutKernel):
    """Fused FENNEL objective: ``counts - α γ |P_i|^(γ-1)`` (Eq. 5).

    The additive load penalty (including the ν-capacity mask, folded in
    as ``+inf`` so ``counts - penalty`` is ``-inf`` for full partitions)
    is maintained incrementally: placing a vertex recomputes one scalar
    power instead of a k-wide vector power per arrival.
    """

    def __init__(self, num_partitions: int, num_vertices: int,
                 alpha: float, gamma: float, capacity: float) -> None:
        super().__init__(num_partitions, num_vertices)
        #: α as built; ``begin_pass(alpha)`` anneals only the coefficient.
        self.alpha = float(alpha)
        self.gamma = float(gamma)
        self.capacity = float(capacity)
        self._exponent = self.gamma - 1.0
        self._coefficient = float(alpha) * self.gamma
        self._penalty = np.zeros(self.k, dtype=np.float64)

    def score_counts(self, counts: np.ndarray) -> np.ndarray:
        if sanitize.ACTIVE:
            sanitize.check_no_alias(self.scores, counts,
                                    "kernels.FennelKernel.score_counts")
        np.subtract(counts[:self.k], self._penalty, out=self.scores)
        if sanitize.ACTIVE:
            # -inf is legitimate here (full partitions); NaN is not.
            sanitize.check_scores(self.scores,
                                  "kernels.FennelKernel.score_counts")
        return self.scores

    def score(self, neighbors: np.ndarray) -> np.ndarray:
        return self.score_counts(self.neighbor_counts(neighbors))

    def place(self, vertex: int, target: int) -> None:
        self.slots[vertex] = target
        size = int(self.sizes[target]) + 1
        self.sizes[target] = size
        if size >= self.capacity:
            self._penalty[target] = np.inf
        else:
            self._penalty[target] = (
                self._coefficient * np.float64(size) ** self._exponent)

    def begin_pass(self, alpha: float | None = None) -> None:
        """Reset for a restreaming pass, optionally annealing α."""
        super().begin_pass()
        if alpha is not None:
            self._coefficient = float(alpha) * self.gamma
        self._penalty.fill(0.0)
