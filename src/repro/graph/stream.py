"""Graph stream models.

The paper (Section 3) defines a streaming algorithm as one that is
"sequentially presented a stream S = <a1, a2, ...>" where each element is
either an edge ``(u, v)`` or a vertex ``u`` with its neighbourhood ``N(u)``.
This module materialises both stream models over an in-memory
:class:`~repro.graph.digraph.Graph`, plus the stream *orders* the SGP
literature studies (random, BFS, DFS, degree-sorted) — HDRF's λ term, for
example, exists specifically to survive BFS-ordered streams.

Streams are plain Python iterables so partitioners can also consume truly
external sources (e.g. a file reader) that follow the same element shapes:

* vertex stream elements: ``VertexArrival(vertex, neighbors)``
* edge stream elements:   ``EdgeArrival(edge_id, src, dst)``
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.digraph import Graph
from repro.rng import make_rng

#: Recognised stream order names.
STREAM_ORDERS = ("natural", "random", "bfs", "dfs", "degree", "degree_desc")


@dataclass(frozen=True)
class VertexArrival:
    """One element of a vertex stream: a vertex and its full neighbourhood."""

    vertex: int
    neighbors: np.ndarray

    def __iter__(self):  # allows ``for u, nbrs in stream`` unpacking
        return iter((self.vertex, self.neighbors))


@dataclass(frozen=True)
class EdgeArrival:
    """One element of an edge stream."""

    edge_id: int
    src: int
    dst: int

    def __iter__(self):
        return iter((self.edge_id, self.src, self.dst))


def vertex_order(graph: Graph, order: str = "natural", seed=None) -> np.ndarray:
    """Return a permutation of vertex ids realising a stream *order*.

    ``bfs``/``dfs`` traverse the undirected graph from the lowest-id vertex
    of each component (appending unreached components in id order), which is
    the convention used by Stanton & Kliot's experiments.
    """
    n = graph.num_vertices
    if order == "natural":
        return np.arange(n, dtype=np.int64)
    if order == "random":
        rng = make_rng(seed)
        return rng.permutation(n).astype(np.int64)
    if order == "degree":
        return np.argsort(graph.degree, kind="stable").astype(np.int64)
    if order == "degree_desc":
        return np.argsort(-graph.degree, kind="stable").astype(np.int64)
    if order in ("bfs", "dfs"):
        return _traversal_order(graph, depth_first=(order == "dfs"))
    raise ConfigurationError(
        f"unknown stream order {order!r}; expected one of {STREAM_ORDERS}"
    )


def _traversal_order(graph: Graph, depth_first: bool) -> np.ndarray:
    """BFS or DFS vertex order over the undirected graph, all components."""
    n = graph.num_vertices
    visited = np.zeros(n, dtype=bool)
    result = np.empty(n, dtype=np.int64)
    pos = 0
    from collections import deque

    for root in range(n):
        if visited[root]:
            continue
        visited[root] = True
        frontier = deque([root])
        while frontier:
            u = frontier.pop() if depth_first else frontier.popleft()
            result[pos] = u
            pos += 1
            for v in graph.neighbors(u).tolist():
                if not visited[v]:
                    visited[v] = True
                    frontier.append(v)
    return result


class VertexStream:
    """Stream of vertices with complete adjacency lists (Section 4.1.1).

    This is the input model of edge-cut SGP algorithms (LDG, FENNEL):
    adjacency-list formats require complete neighbourhood information, so
    every arrival carries the *undirected* neighbourhood ``N(u)``.
    """

    def __init__(self, graph: Graph, order: str = "natural", seed=None):
        self.graph = graph
        self.order = order
        self._permutation = vertex_order(graph, order, seed)

    def __len__(self) -> int:
        return self.graph.num_vertices

    def __iter__(self) -> Iterator[VertexArrival]:
        graph = self.graph
        for u in self._permutation.tolist():
            yield VertexArrival(u, graph.neighbors(u))

    @property
    def permutation(self) -> np.ndarray:
        """The vertex order this stream will produce (read-only)."""
        view = self._permutation.view()
        view.flags.writeable = False
        return view


class EdgeStream:
    """Stream of directed edges one-at-a-time (Section 4.2.2).

    This is the input model of vertex-cut SGP algorithms (DBH, Grid,
    PowerGraph-greedy, HDRF) and of hybrid-cut algorithms.  ``order``
    applies to *edges*: ``bfs``/``dfs`` emit each vertex's out-edges in
    traversal order of the source (matching how a crawl or a bulk export
    would emit them), ``random`` shuffles edges uniformly.
    """

    def __init__(self, graph: Graph, order: str = "natural", seed=None):
        self.graph = graph
        self.order = order
        self._permutation = self._edge_order(order, seed)

    def _edge_order(self, order: str, seed) -> np.ndarray:
        m = self.graph.num_edges
        if order == "natural":
            return np.arange(m, dtype=np.int64)
        if order == "random":
            return make_rng(seed).permutation(m).astype(np.int64)
        if order in ("bfs", "dfs", "degree", "degree_desc"):
            by_vertex = vertex_order(self.graph, order, seed)
            chunks = [self.graph.out_edge_ids(int(u)) for u in by_vertex]
            if not chunks:
                return np.arange(0, dtype=np.int64)
            return np.concatenate(chunks).astype(np.int64)
        raise ConfigurationError(
            f"unknown stream order {order!r}; expected one of {STREAM_ORDERS}"
        )

    def __len__(self) -> int:
        return self.graph.num_edges

    def __iter__(self) -> Iterator[EdgeArrival]:
        src = self.graph.src
        dst = self.graph.dst
        for eid in self._permutation.tolist():
            yield EdgeArrival(eid, int(src[eid]), int(dst[eid]))

    def iter_chunks(
        self, chunk_size: int,
    ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Yield ``(edge_ids, src, dst)`` arrays of at most *chunk_size*
        arrivals each, in stream order; ``edge_ids`` are read-only slices
        of :attr:`permutation`."""
        if chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1, got {chunk_size}")
        permutation = self.permutation
        src, dst = self.graph.src, self.graph.dst
        for start in range(0, permutation.size, chunk_size):
            edge_ids = permutation[start:start + chunk_size]
            yield edge_ids, src[edge_ids], dst[edge_ids]

    @property
    def permutation(self) -> np.ndarray:
        """The edge-id order this stream will produce (read-only)."""
        view = self._permutation.view()
        view.flags.writeable = False
        return view
