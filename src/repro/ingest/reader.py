"""Memory-mapped readers for ``.redg`` edge-stream files.

:class:`EdgeStreamFile` validates the header and is itself an edge
stream: it yields :class:`~repro.graph.stream.EdgeArrival` elements in
file order, and its seekable ``(edge_ids, src, dst)`` chunk iteration
over any ``[start, stop)`` edge range is what
:func:`repro.partitioning.kernels.iter_edge_chunks` reads, so every
edge partitioner takes the file where an
:class:`~repro.graph.stream.EdgeStream` fits.  Resident memory is one
chunk regardless of file size, since the payload is a read-only
:func:`numpy.memmap`.  :class:`FileVertexStream` replays an
adjacency-sorted spill (:func:`repro.ingest.writer.spill_adjacency`) as
``VertexArrival`` elements, stitching neighbour runs across chunk
boundaries, without building a :class:`~repro.graph.digraph.Graph`.
"""

from __future__ import annotations

import os
from typing import Iterator

import numpy as np

from repro.errors import IngestError
from repro.graph.stream import EdgeArrival, VertexArrival
from repro.ingest.format import FORMAT_VERSION, HEADER_SIZE, MAGIC, Header

__all__ = [
    "EdgeStreamFile",
    "FileVertexStream",
]


class EdgeStreamFile:
    """A validated, memory-mapped ``.redg`` file and edge stream."""

    def __init__(self, path) -> None:
        self.path = os.fspath(path)
        size = os.path.getsize(self.path)
        if size < HEADER_SIZE:
            raise IngestError(
                f"{self.path}: too short for a .redg header "
                f"({size} < {HEADER_SIZE} bytes)")
        with open(self.path, "rb") as fh:
            header = Header.unpack(fh.read(HEADER_SIZE))
        if header.magic != MAGIC:
            raise IngestError(
                f"{self.path}: bad magic {header.magic!r} "
                f"(expected {MAGIC!r}) — not a .redg stream file")
        if header.version != FORMAT_VERSION:
            raise IngestError(
                f"{self.path}: format version {header.version} unsupported "
                f"(this reader speaks version {FORMAT_VERSION})")
        expected = (HEADER_SIZE + 16 * header.num_edges
                    + 8 * header.num_chunks)
        if size != expected:
            raise IngestError(
                f"{self.path}: file is {size} bytes but the header promises "
                f"{expected} — truncated or corrupt")
        self.header = header
        footer_offset = HEADER_SIZE + 16 * header.num_edges
        if header.num_chunks:
            footer = np.memmap(self.path, dtype="<u8", mode="r",
                               offset=footer_offset,
                               shape=(header.num_chunks,))
            chunk_lengths = np.asarray(footer, dtype=np.int64)
            del footer
        else:
            chunk_lengths = np.zeros(0, dtype=np.int64)
        if int(chunk_lengths.sum()) != header.num_edges:
            raise IngestError(
                f"{self.path}: chunk table sums to {int(chunk_lengths.sum())} "
                f"edges, header promises {header.num_edges}")
        self.chunk_lengths = chunk_lengths
        # chunk c covers edge ids [_bounds[c], _bounds[c + 1])
        self._bounds = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(chunk_lengths)])
        self._payload = (np.memmap(self.path, dtype="<u8", mode="r",
                                   offset=HEADER_SIZE,
                                   shape=(2 * header.num_edges,))
                         if header.num_edges else
                         np.zeros(0, dtype="<u8"))

    # -- header facts --------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.header.num_vertices

    @property
    def num_edges(self) -> int:
        return self.header.num_edges

    @property
    def num_chunks(self) -> int:
        return self.header.num_chunks

    @property
    def adjacency_sorted(self) -> bool:
        return self.header.adjacency_sorted

    def describe(self) -> dict:
        """Header facts as a plain dict (the ``ingest info`` CLI view)."""
        lengths = self.chunk_lengths
        return {
            "path": self.path,
            "format_version": self.header.version,
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
            "num_chunks": self.num_chunks,
            "adjacency_sorted": self.adjacency_sorted,
            "payload_bytes": 16 * self.num_edges,
            "max_chunk_edges": int(lengths.max()) if lengths.size else 0,
        }

    # -- chunk iteration ------------------------------------------------
    def iter_chunks(
        self, chunk_edges: int | None = None, *,
        start: int = 0, stop: int | None = None,
    ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Yield ``(edge_ids, src, dst)`` int64 chunks for ``[start, stop)``.

        Chunks follow the stored layout, clipped to the range and split
        further when *chunk_edges* is given (stored chunks are never
        merged, so a yielded chunk holds at most
        ``min(stored_length, chunk_edges)`` edges).  Edge ids are global
        stream positions.
        """
        m = self.num_edges
        stop = m if stop is None else int(stop)
        start = int(start)
        if not (0 <= start <= stop <= m):
            raise IngestError(
                f"invalid edge range [{start}, {stop}) for {m} edges")
        if chunk_edges is not None and chunk_edges < 1:
            raise IngestError(f"chunk_edges must be >= 1, got {chunk_edges}")
        if start == stop:
            return
        bounds = self._bounds
        payload = self._payload
        first = int(np.searchsorted(bounds, start, side="right")) - 1
        for c in range(first, self.num_chunks):
            c_start = int(bounds[c])
            c_stop = int(bounds[c + 1])
            if c_start >= stop:
                break
            lo = max(start, c_start)
            hi = min(stop, c_stop)
            if lo >= hi:
                continue
            base = 2 * c_start
            length = c_stop - c_start
            step = hi - lo if chunk_edges is None else int(chunk_edges)
            for piece in range(lo, hi, step):
                piece_stop = min(piece + step, hi)
                src = payload[base + (piece - c_start):
                              base + (piece_stop - c_start)]
                dst = payload[base + length + (piece - c_start):
                              base + length + (piece_stop - c_start)]
                yield (np.arange(piece, piece_stop, dtype=np.int64),
                       src.astype(np.int64), dst.astype(np.int64))

    def __len__(self) -> int:
        return self.num_edges

    def __iter__(self) -> Iterator[EdgeArrival]:
        for edge_ids, src, dst in self.iter_chunks():
            for arrival in zip(edge_ids.tolist(), src.tolist(), dst.tolist()):
                yield EdgeArrival(*arrival)

    def close(self) -> None:
        """Drop the payload mapping (further iteration is invalid)."""
        self._payload = np.zeros(0, dtype="<u8")

    def __enter__(self) -> "EdgeStreamFile":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class FileVertexStream:
    """Vertex-stream adapter over an adjacency-sorted ``.redg`` file.

    Replays each contiguous same-source run as one
    :class:`~repro.graph.stream.VertexArrival`, stitching runs that span
    chunk boundaries.  Vertices with no neighbours own no run and are
    never yielded, so graphs with isolated vertices produce partial
    assignments (exactly like any external vertex stream would).
    """

    def __init__(self, source) -> None:
        file = (source if isinstance(source, EdgeStreamFile)
                else EdgeStreamFile(source))
        if not file.adjacency_sorted:
            raise IngestError(
                f"{file.path}: vertex replay needs an adjacency-sorted "
                f"spill (see repro.ingest.spill_adjacency)")
        self.file = file

    @property
    def num_vertices(self) -> int:
        return self.file.num_vertices

    def __len__(self) -> int:
        return self.num_vertices

    def __iter__(self) -> Iterator[VertexArrival]:
        pending_vertex: int | None = None
        pending_parts: list[np.ndarray] = []
        for _, src, dst in self.file.iter_chunks():
            boundaries = np.flatnonzero(src[1:] != src[:-1]) + 1
            run_edges = np.split(dst, boundaries)
            run_vertices = src[np.concatenate(
                [np.zeros(1, dtype=np.int64), boundaries])].tolist()
            for u, neighbors in zip(run_vertices, run_edges):
                if pending_vertex is not None and u == pending_vertex:
                    pending_parts.append(neighbors)
                    continue
                if pending_vertex is not None:
                    yield VertexArrival(pending_vertex,
                                        _concat(pending_parts))
                pending_vertex = int(u)
                pending_parts = [neighbors]
        if pending_vertex is not None:
            yield VertexArrival(pending_vertex, _concat(pending_parts))


def _concat(parts: list[np.ndarray]) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts)
