"""Spill edge streams to ``.redg`` files without materialising a graph.

:class:`EdgeStreamWriter` streams ``(src, dst)`` chunks to disk behind
the versioned header of :mod:`repro.ingest.format`; the generator
spillers (:func:`spill_rmat`, :func:`spill_powerlaw`) produce synthetic
streams whose peak memory is one chunk (plus, for preferential
attachment, the in-degree endpoint pool) instead of the full edge list —
this is how the out-of-core benchmarks build 10⁷⁺-edge inputs on a small
heap.  :func:`spill_graph_edges` / :func:`spill_adjacency` export an
in-memory :class:`~repro.graph.digraph.Graph` for parity testing against
the file-backed path.
"""

from __future__ import annotations

import os
from typing import Iterable, Iterator

import numpy as np

from repro import telemetry
from repro.errors import ConfigurationError, IngestError
from repro.graph.digraph import Graph
from repro.graph.generators.powerlaw import iter_powerlaw_chunks
from repro.graph.stream import vertex_order
from repro.ingest.format import FLAG_ADJACENCY, FORMAT_VERSION, MAGIC, Header
from repro.rng import make_rng

__all__ = [
    "DEFAULT_SPILL_CHUNK",
    "EdgeStreamWriter",
    "iter_powerlaw_chunks",
    "iter_rmat_chunks",
    "spill_adjacency",
    "spill_edges",
    "spill_graph_edges",
    "spill_powerlaw",
    "spill_rmat",
]

#: Edges generated/written per chunk by the spillers: 2 MiB of payload.
DEFAULT_SPILL_CHUNK = 1 << 17


class EdgeStreamWriter:
    """Stream ``(src, dst)`` chunks into a ``.redg`` file.

    A placeholder header goes out first; chunks append as
    ``src·dst`` uint64 blocks; :meth:`close` writes the footer chunk
    table and rewrites the real header (so a crash mid-spill leaves an
    unreadable file, never a silently short one — the reader checks the
    byte length against the header).
    """

    def __init__(self, path, num_vertices: int, *,
                 adjacency_sorted: bool = False) -> None:
        if num_vertices < 0:
            raise ConfigurationError("num_vertices must be non-negative")
        self.path = os.fspath(path)
        self.num_vertices = int(num_vertices)
        self.num_edges = 0
        self.flags = FLAG_ADJACENCY if adjacency_sorted else 0
        self._chunk_lengths: list[int] = []
        self._fh = open(self.path, "wb")
        self._fh.write(Header(magic=MAGIC, version=FORMAT_VERSION,
                              flags=self.flags, num_vertices=0, num_edges=0,
                              num_chunks=0).pack())
        self._closed = False

    def append(self, src: np.ndarray, dst: np.ndarray) -> None:
        """Write one chunk of edges (arrays of equal length)."""
        if self._closed:
            raise IngestError(f"writer for {self.path} is closed")
        src = np.ascontiguousarray(src, dtype="<u8")
        dst = np.ascontiguousarray(dst, dtype="<u8")
        if src.shape != dst.shape or src.ndim != 1:
            raise IngestError("src/dst chunks must be equal-length 1-D arrays")
        if src.size == 0:
            return
        src.tofile(self._fh)
        dst.tofile(self._fh)
        self._chunk_lengths.append(int(src.size))
        self.num_edges += int(src.size)

    def close(self) -> None:
        """Write the footer and the real header; idempotent."""
        if self._closed:
            return
        footer = np.asarray(self._chunk_lengths, dtype="<u8")
        footer.tofile(self._fh)
        self._fh.seek(0)
        self._fh.write(Header(magic=MAGIC, version=FORMAT_VERSION,
                              flags=self.flags,
                              num_vertices=self.num_vertices,
                              num_edges=self.num_edges,
                              num_chunks=len(self._chunk_lengths)).pack())
        self._fh.close()
        self._closed = True
        telemetry.get_metrics().counter("ingest.spilled_edges").inc(
            self.num_edges)

    def __enter__(self) -> "EdgeStreamWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def spill_edges(path, num_vertices: int,
                chunks: Iterable[tuple[np.ndarray, np.ndarray]], *,
                adjacency_sorted: bool = False) -> str:
    """Spill an iterable of ``(src, dst)`` chunks to *path*; returns it."""
    with EdgeStreamWriter(path, num_vertices,
                          adjacency_sorted=adjacency_sorted) as writer:
        for src, dst in chunks:
            writer.append(src, dst)
    return os.fspath(path)


# ----------------------------------------------------------------------
# Chunked synthetic generators (never hold the full edge list)
# ----------------------------------------------------------------------
def iter_rmat_chunks(
    scale: int,
    edge_factor: float = 16.0,
    *,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    noise: float = 0.1,
    seed=None,
    chunk_edges: int = DEFAULT_SPILL_CHUNK,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """R-MAT edge chunks, ``O(chunk_edges)`` memory.

    Same recursive-quadrant process as :func:`repro.graph.generators.rmat`
    (Graph500 parameters, per-level jitter, self-loops dropped) but the
    per-level coin flips are drawn chunk-at-a-time, so the stream spec is
    ``(scale, edge_factor, a, b, c, noise, seed, chunk_edges)`` — the
    chunk size is part of the stream's identity, not of the in-memory
    generator's.
    """
    if scale < 1 or scale > 30:
        raise ConfigurationError("scale must be in [1, 30]")
    d = 1.0 - a - b - c
    if min(a, b, c, d) <= 0:
        raise ConfigurationError(
            "quadrant probabilities must be positive and sum < 1")
    if chunk_edges < 1:
        raise ConfigurationError("chunk_edges must be >= 1")
    rng = make_rng(seed)
    n = 1 << scale
    m = int(round(edge_factor * n))

    # Per-level quadrant probabilities are stream-level constants: draw
    # all the jitters up front so chunking never changes them.
    level_probs = []
    for _ in range(scale):
        jitter = 1.0 + noise * (rng.random(4) - 0.5)
        pa, pb, pc, pd = np.array([a, b, c, d]) * jitter
        total = pa + pb + pc + pd
        level_probs.append((pa / total, pb / total, pc / total))

    for start in range(0, m, chunk_edges):
        count = min(chunk_edges, m - start)
        row = np.zeros(count, dtype=np.int64)
        col = np.zeros(count, dtype=np.int64)
        for level, (pa, pb, pc) in enumerate(level_probs):
            u = rng.random(count)
            go_right = u >= (pa + pc)       # quadrants b, d select right half
            within_right = np.where(go_right, u - (pa + pc), 0.0)
            within_left = np.where(~go_right, u, 0.0)
            go_down = np.where(go_right, within_right >= pb,
                               within_left >= pa)
            bit = np.int64(1 << (scale - 1 - level))
            row += bit * go_down
            col += bit * go_right
        keep = row != col                   # chunks shrink: lengths vary
        yield row[keep], col[keep]


def spill_rmat(path, scale: int, edge_factor: float = 16.0, *,
               a: float = 0.57, b: float = 0.19, c: float = 0.19,
               noise: float = 0.1, seed=None,
               chunk_edges: int = DEFAULT_SPILL_CHUNK) -> str:
    """Spill an R-MAT stream with ``2**scale`` vertices to *path*."""
    return spill_edges(path, 1 << scale,
                       iter_rmat_chunks(scale, edge_factor, a=a, b=b, c=c,
                                        noise=noise, seed=seed,
                                        chunk_edges=chunk_edges))


def spill_powerlaw(path, num_vertices: int, avg_out_degree: float = 16.0, *,
                   uniform_mix: float = 0.2, seed=None,
                   chunk_edges: int = DEFAULT_SPILL_CHUNK) -> str:
    """Spill a preferential-attachment stream to *path*."""
    return spill_edges(path, num_vertices,
                       iter_powerlaw_chunks(num_vertices, avg_out_degree,
                                            uniform_mix=uniform_mix,
                                            seed=seed,
                                            chunk_edges=chunk_edges))


# ----------------------------------------------------------------------
# In-memory graph exports (parity tests, adjacency replay)
# ----------------------------------------------------------------------
def spill_graph_edges(graph: Graph, path, *,
                      chunk_edges: int = DEFAULT_SPILL_CHUNK) -> str:
    """Spill a graph's natural-order edge stream to *path*.

    Partitioning the resulting file is arrival-for-arrival identical to
    partitioning ``EdgeStream(graph, order="natural")``.
    """
    def _chunks():
        src, dst = graph.src, graph.dst
        for start in range(0, graph.num_edges, chunk_edges):
            stop = start + chunk_edges
            yield src[start:stop], dst[start:stop]

    return spill_edges(path, graph.num_vertices, _chunks())


def spill_adjacency(graph: Graph, path, *, order: str = "natural", seed=None,
                    chunk_edges: int = DEFAULT_SPILL_CHUNK) -> str:
    """Spill the undirected adjacency expansion, grouped by source.

    Each vertex's undirected neighbourhood appears as a contiguous run of
    ``(u, neighbor)`` pairs, in stream *order* of ``u`` — the layout
    :class:`repro.ingest.FileVertexStream` replays as ``VertexArrival``
    elements (isolated vertices own an empty run and are never yielded).
    """
    indptr, indices = graph.undirected_csr()

    def _chunks():
        for u in vertex_order(graph, order, seed).tolist():
            neighbors = indices[indptr[u]:indptr[u + 1]]
            if neighbors.size:
                yield np.full(neighbors.size, u, dtype=np.int64), neighbors

    # Group whole vertex runs into write chunks of ~chunk_edges.
    def _grouped():
        srcs: list[np.ndarray] = []
        dsts: list[np.ndarray] = []
        buffered = 0
        for src, dst in _chunks():
            srcs.append(src)
            dsts.append(dst)
            buffered += int(src.size)
            if buffered >= chunk_edges:
                yield np.concatenate(srcs), np.concatenate(dsts)
                srcs, dsts, buffered = [], [], 0
        if buffered:
            yield np.concatenate(srcs), np.concatenate(dsts)

    return spill_edges(path, graph.num_vertices, _grouped(),
                       adjacency_sorted=True)
