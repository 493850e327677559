"""Bounded-memory degree state for the vertex-cut streaming loops.

HDRF's θ term, DBH-partial's hash choice and PowerGraph-greedy's rule 2
all read the *partial degree* counters a sequential edge loop would hold
after each arrival.  The kernel layer originally reconstructed those
counters for the whole stream in one vectorized pass
(:func:`repro.partitioning.kernels.streaming_partial_degrees`), which is
fast but requires the full stream in memory — exactly what the
out-of-core ingest path (:mod:`repro.ingest`) must avoid.

This module provides the chunk-accumulating equivalent behind one small
interface, ``push(src, dst) -> (d_src, d_dst)``:

* :class:`ExactDegreeTable` — an ``int64[num_vertices]`` counter table.
  Feeding a stream through ``push`` chunk by chunk yields **bit-identical**
  per-arrival degrees to the whole-stream helper, for *any* chunk layout
  (the golden-digest suite pins this).  Memory: ``8·n`` bytes.
* :class:`SketchDegreeTable` — the same interface over a deterministic
  :class:`CountMinSketch` (seeded via :func:`repro.rng.splitmix64`), per
  "Streaming Hypergraph Partitioning Algorithms on Limited Memory
  Environments" (arXiv 2103.05394).  Memory: ``8·width·depth`` bytes,
  independent of the vertex count; estimates never *under*-count, with
  overcount ≤ ``e/width · N`` at probability ``1 − e^{−depth}`` (N =
  total endpoint arrivals).

Both states are chunk-size invariant: splitting the same stream into
different chunk layouts produces the same per-arrival answers, which is
what makes the sharded ingest driver's digests independent of file chunk
geometry.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.rng import splitmix64
from repro.tools import sanitize

__all__ = [
    "DEFAULT_SKETCH_DEPTH",
    "DEFAULT_SKETCH_WIDTH",
    "DEGREE_STATES",
    "CountMinSketch",
    "ExactDegreeTable",
    "SketchDegreeTable",
    "make_degree_state",
    "run_inclusive_ranks",
]

#: Recognised ``state=`` values on the vertex-cut partitioners.
DEGREE_STATES = ("exact", "sketch")

#: Default count-min geometry: 4 × 16384 × 8 B = 512 KiB of state,
#: ε = e/width ≈ 1.7e-4 relative overcount at δ = e^-4 ≈ 1.8%.
DEFAULT_SKETCH_WIDTH = 16384
DEFAULT_SKETCH_DEPTH = 4


def run_inclusive_ranks(values: np.ndarray) -> np.ndarray:
    """1-based rank of each element within its equal-value run.

    ``out[i]`` counts the occurrences of ``values[i]`` at positions
    ``<= i`` — the inclusive per-occurrence counter a scalar tally loop
    would report.  This is the vectorized core shared by
    :func:`repro.partitioning.kernels.streaming_partial_degrees` (whole
    stream) and the chunk-accumulating tables here (per chunk, offset by
    the carried counters).
    """
    return _count_runs(values)[0]


def _count_runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                               np.ndarray]:
    """``(run_inclusive_ranks(values), uniques, totals)`` from one stable
    sort, where ``uniques, totals`` equal ``np.unique(values,
    return_counts=True)``: the tables add a chunk's totals with one
    fancy-indexed ``+=`` instead of the much slower ``np.add.at``."""
    n = int(values.size)
    if n == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, values[:0], empty
    order = np.argsort(values, kind="stable")
    sorted_values = values[order]
    is_run_start = np.empty(n, dtype=bool)
    is_run_start[0] = True
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=is_run_start[1:])
    run_starts = np.flatnonzero(is_run_start)
    run_lengths = np.diff(np.append(run_starts, n))
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = (np.arange(1, n + 1, dtype=np.int64)
                    - np.repeat(run_starts, run_lengths))
    return ranks, sorted_values[run_starts], run_lengths


def _interleave(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Endpoint arrivals in scalar-loop order: src0, dst0, src1, dst1, …"""
    m = int(src.size)
    interleaved = np.empty(2 * m, dtype=np.int64)
    interleaved[0::2] = src
    interleaved[1::2] = dst
    return interleaved


class ExactDegreeTable:
    """Exact partial-degree counters, accumulated chunk by chunk.

    Bit-identical to the sequential scalar loop (and therefore to the
    whole-stream vectorized reconstruction) for any chunk layout.
    """

    kind = "exact"

    def __init__(self, num_vertices: int) -> None:
        self.num_vertices = int(num_vertices)
        if self.num_vertices < 0:
            raise ConfigurationError("num_vertices must be non-negative")
        self._counts = np.zeros(self.num_vertices, dtype=np.int64)

    @property
    def nbytes(self) -> int:
        """Bytes of counter state held."""
        return int(self._counts.nbytes)

    def degree(self, vertices: np.ndarray) -> np.ndarray:
        """Current (exact) degree counters of *vertices*."""
        return self._counts[np.asarray(vertices, dtype=np.int64)]

    def push(self, src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Account one chunk of edges; per-arrival inclusive degrees.

        Element ``i`` of the returned ``(d_src, d_dst)`` equals the
        counters a scalar loop would hold **after** incrementing both
        endpoints of edge ``i`` (a self-loop counts twice).
        """
        m = int(src.size)
        if m == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty.copy()
        interleaved = _interleave(src, dst)
        ranks, uniques, totals = _count_runs(interleaved)
        inclusive = self._counts[interleaved] + ranks
        self._counts[uniques] += totals
        d_src = inclusive[0::2] + (src == dst)
        d_dst = inclusive[1::2]
        return d_src, d_dst


class CountMinSketch:
    """Deterministic count-min sketch over non-negative integer keys.

    ``depth`` rows of ``width`` counters; row ``j`` hashes through
    :func:`repro.rng.splitmix64` with seed ``seed + j``, so the whole
    structure is a pure function of ``(width, depth, seed)`` — two
    processes building sketches from the same stream agree exactly.
    Counters only grow, so estimates never under-count the true
    frequency; the classic bound gives overcount ``≤ (e/width)·N`` with
    probability ``1 − e^{−depth}`` for N total increments.
    """

    def __init__(self, width: int = DEFAULT_SKETCH_WIDTH,
                 depth: int = DEFAULT_SKETCH_DEPTH, seed: int = 0) -> None:
        if width < 1 or depth < 1:
            raise ConfigurationError(
                f"count-min sketch needs width >= 1 and depth >= 1, "
                f"got width={width}, depth={depth}")
        self.width = int(width)
        self.depth = int(depth)
        self.seed = int(seed)
        self._table = np.zeros((self.depth, self.width), dtype=np.int64)

    @property
    def nbytes(self) -> int:
        return int(self._table.nbytes)

    def _slots(self, values: np.ndarray, row: int) -> np.ndarray:
        hashed = splitmix64(values, self.seed + row)
        return (hashed % np.uint64(self.width)).astype(np.int64)

    def add(self, values: np.ndarray) -> None:
        """Count one occurrence of every element of *values*."""
        if int(values.size) == 0:
            return
        values = np.asarray(values, dtype=np.int64)
        for row in range(self.depth):
            _, uniques, totals = _count_runs(self._slots(values, row))
            self._table[row, uniques] += totals

    def estimate(self, values: np.ndarray) -> np.ndarray:
        """Frequency estimates (min over rows) for *values*."""
        values = np.asarray(values, dtype=np.int64)
        estimates = self._table[0, self._slots(values, 0)].copy()
        for row in range(1, self.depth):
            np.minimum(estimates, self._table[row, self._slots(values, row)],
                       out=estimates)
        return estimates

    def add_with_ranks(self, values: np.ndarray) -> np.ndarray:
        """Count *values* and return inclusive per-occurrence estimates.

        ``out[i]`` is the estimate a scalar loop doing
        ``add(v); estimate(v)`` per element would report at position
        ``i`` — prior table content plus the element's inclusive rank
        among equal-slot arrivals within this call, minimised over rows.
        Chunk-size invariant for the same overall sequence.
        """
        n = int(values.size)
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        values = np.asarray(values, dtype=np.int64)
        estimates: np.ndarray | None = None
        for row in range(self.depth):
            slots = self._slots(values, row)
            ranks, uniques, totals = _count_runs(slots)
            row_estimate = self._table[row, slots] + ranks
            self._table[row, uniques] += totals
            if estimates is None:
                estimates = row_estimate
            else:
                np.minimum(estimates, row_estimate, out=estimates)
        assert estimates is not None
        if sanitize.ACTIVE:
            # Counters only grow; a negative cell is int64 wraparound.
            sanitize.check_sizes(self._table.reshape(-1),
                                 "degree_state.CountMinSketch")
        return estimates


class SketchDegreeTable:
    """Count-min-backed partial degrees with the :class:`ExactDegreeTable`
    interface — the ``state="sketch"`` mode of HDRF/DBH/greedy.

    Estimates are upper bounds on the exact counters, so θ and the
    degree comparisons degrade gracefully (hubs stay hubs); memory is
    fixed at ``8·width·depth`` bytes regardless of graph size.
    """

    kind = "sketch"

    def __init__(self, num_vertices: int, width: int = DEFAULT_SKETCH_WIDTH,
                 depth: int = DEFAULT_SKETCH_DEPTH, seed: int = 0) -> None:
        self.num_vertices = int(num_vertices)
        self.sketch = CountMinSketch(width, depth, seed)

    @property
    def nbytes(self) -> int:
        return self.sketch.nbytes

    def degree(self, vertices: np.ndarray) -> np.ndarray:
        """Current degree estimates (never below the exact counters)."""
        return self.sketch.estimate(vertices)

    def push(self, src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Account one chunk of edges; per-arrival degree estimates."""
        m = int(src.size)
        if m == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty.copy()
        inclusive = self.sketch.add_with_ranks(_interleave(src, dst))
        d_src = inclusive[0::2] + (src == dst)
        d_dst = inclusive[1::2]
        return d_src, d_dst


def make_degree_state(
    state: str, num_vertices: int, *,
    sketch_width: int = DEFAULT_SKETCH_WIDTH,
    sketch_depth: int = DEFAULT_SKETCH_DEPTH,
    sketch_seed: int = 0,
) -> "ExactDegreeTable | SketchDegreeTable":
    """Build the degree state selected by a partitioner's ``state=``."""
    if state == "exact":
        return ExactDegreeTable(num_vertices)
    if state == "sketch":
        return SketchDegreeTable(num_vertices, sketch_width, sketch_depth,
                                 sketch_seed)
    raise ConfigurationError(
        f"unknown degree state {state!r}; expected one of {DEGREE_STATES}")
