"""Compact directed graph with CSR adjacency.

:class:`Graph` is the single in-memory graph representation used across the
package.  It is immutable after construction, stores edges as parallel
``int64`` numpy arrays and builds CSR indices for out-, in- and undirected
neighbourhoods on demand.  Vertices are dense integers ``0..n-1``.

The streaming partitioners never *require* the whole graph — they consume
:mod:`repro.graph.stream` iterators — but the experimental harness (like the
paper's) materialises each dataset once and streams it in different orders.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Union

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.sorting import stable_argsort

#: Anything ``np.ascontiguousarray`` can turn into an endpoint array.
EdgeEndpoints = Union[np.ndarray, Sequence[int]]


class Graph:
    """An immutable directed multigraph over vertices ``0..n-1``.

    Parameters
    ----------
    num_vertices:
        Number of vertices ``n``.  Every endpoint must be ``< n``.
    src, dst:
        Parallel arrays of edge endpoints.  Edge *i* is ``src[i] -> dst[i]``
        and edge ids are positions in these arrays.
    name:
        Optional human-readable dataset name (used in reports).
    """

    def __init__(self, num_vertices: int, src: EdgeEndpoints,
                 dst: EdgeEndpoints, name: str = "graph") -> None:
        src = np.ascontiguousarray(src, dtype=np.int64)
        dst = np.ascontiguousarray(dst, dtype=np.int64)
        if src.ndim != 1 or dst.ndim != 1 or src.shape != dst.shape:
            raise GraphFormatError("src and dst must be 1-D arrays of equal length")
        if num_vertices < 0:
            raise GraphFormatError(f"num_vertices must be >= 0, got {num_vertices}")
        if src.size:
            lo = min(src.min(), dst.min())
            hi = max(src.max(), dst.max())
            if lo < 0 or hi >= num_vertices:
                raise GraphFormatError(
                    f"edge endpoints must lie in [0, {num_vertices}), "
                    f"found range [{lo}, {hi}]"
                )
        self._n = int(num_vertices)
        self._src = src
        self._dst = dst
        self.name = name
        # CSR caches, built lazily.
        self._out_csr: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._in_csr: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._und_csr: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._out_degree: np.ndarray | None = None
        self._in_degree: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of directed edges ``m``."""
        return int(self._src.size)

    @property
    def src(self) -> np.ndarray:
        """Source endpoint of each edge (read-only view)."""
        view = self._src.view()
        view.flags.writeable = False
        return view

    @property
    def dst(self) -> np.ndarray:
        """Destination endpoint of each edge (read-only view)."""
        view = self._dst.view()
        view.flags.writeable = False
        return view

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Graph(name={self.name!r}, n={self.num_vertices}, "
            f"m={self.num_edges})"
        )

    # ------------------------------------------------------------------
    # Degrees
    # ------------------------------------------------------------------
    @property
    def out_degree(self) -> np.ndarray:
        """Out-degree of every vertex as an ``int64`` array of length n."""
        if self._out_degree is None:
            self._out_degree = np.bincount(self._src, minlength=self._n).astype(np.int64)
        return self._out_degree

    @property
    def in_degree(self) -> np.ndarray:
        """In-degree of every vertex as an ``int64`` array of length n."""
        if self._in_degree is None:
            self._in_degree = np.bincount(self._dst, minlength=self._n).astype(np.int64)
        return self._in_degree

    @property
    def degree(self) -> np.ndarray:
        """Total (in + out) degree of every vertex."""
        return self.out_degree + self.in_degree

    # ------------------------------------------------------------------
    # CSR construction
    # ------------------------------------------------------------------
    @staticmethod
    def _build_csr(keys: np.ndarray, values: np.ndarray,
                   n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sort ``values`` by ``keys`` and return ``(indptr, indices, order)``.

        ``order`` maps CSR slots back to original edge ids, so callers can
        recover which edge produced each adjacency entry.
        """
        order = stable_argsort(keys)
        indices = values[order]
        counts = np.bincount(keys, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return indptr, indices, order

    def _ensure_out_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._out_csr is None:
            self._out_csr = self._build_csr(self._src, self._dst, self._n)
        return self._out_csr

    def _ensure_in_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._in_csr is None:
            self._in_csr = self._build_csr(self._dst, self._src, self._n)
        return self._in_csr

    def _ensure_und_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._und_csr is None:
            keys = np.concatenate([self._src, self._dst])
            values = np.concatenate([self._dst, self._src])
            self._und_csr = self._build_csr(keys, values, self._n)
        return self._und_csr

    # ------------------------------------------------------------------
    # Neighbourhood queries
    # ------------------------------------------------------------------
    def out_neighbors(self, u: int) -> np.ndarray:
        """Destinations of ``u``'s out-edges (with multiplicity)."""
        indptr, indices, _ = self._ensure_out_csr()
        return indices[indptr[u]:indptr[u + 1]]

    def in_neighbors(self, u: int) -> np.ndarray:
        """Sources of ``u``'s in-edges (with multiplicity)."""
        indptr, indices, _ = self._ensure_in_csr()
        return indices[indptr[u]:indptr[u + 1]]

    def neighbors(self, u: int) -> np.ndarray:
        """Undirected neighbourhood N(u): out- and in-neighbours combined.

        This is the ``N(u)`` that vertex-stream partitioners (LDG, FENNEL)
        see for each arriving vertex.
        """
        indptr, indices, _ = self._ensure_und_csr()
        return indices[indptr[u]:indptr[u + 1]]

    def undirected_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, indices)`` of the undirected neighbourhood CSR.

        ``indices[indptr[u]:indptr[u + 1]]`` is exactly
        :meth:`neighbors` of ``u``; exposing the arrays lets streaming
        hot loops (:mod:`repro.partitioning.kernels`) slice adjacency
        without per-vertex method dispatch.  Callers must treat both
        arrays as read-only.
        """
        indptr, indices, _ = self._ensure_und_csr()
        return indptr, indices

    def out_edge_ids(self, u: int) -> np.ndarray:
        """Edge ids of ``u``'s out-edges."""
        indptr, _, order = self._ensure_out_csr()
        return order[indptr[u]:indptr[u + 1]]

    def in_edge_ids(self, u: int) -> np.ndarray:
        """Edge ids of ``u``'s in-edges."""
        indptr, _, order = self._ensure_in_csr()
        return order[indptr[u]:indptr[u + 1]]

    # ------------------------------------------------------------------
    # Iteration / export
    # ------------------------------------------------------------------
    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over ``(src, dst)`` pairs in edge-id order."""
        for u, v in zip(self._src.tolist(), self._dst.tolist()):
            yield u, v

    def edge_array(self) -> np.ndarray:
        """Edges as an ``(m, 2)`` array (copy)."""
        return np.stack([self._src, self._dst], axis=1)

    def reversed(self) -> "Graph":
        """The graph with every edge direction flipped."""
        return Graph(self._n, self._dst.copy(), self._src.copy(), name=f"{self.name}-rev")

    def subgraph_edges(self, edge_ids: Sequence[int], name: str | None = None) -> "Graph":
        """A graph over the same vertex set containing only ``edge_ids``."""
        idx = np.asarray(edge_ids, dtype=np.int64)
        return Graph(
            self._n,
            self._src[idx],
            self._dst[idx],
            name=name or f"{self.name}-sub",
        )

    def with_name(self, name: str) -> "Graph":
        """A shallow rename (shares edge arrays)."""
        clone = Graph.__new__(Graph)
        clone.__dict__.update(self.__dict__)
        clone.name = name
        return clone
