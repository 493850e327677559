"""Single-Source Shortest Path — the paper's frontier workload.

"Initially, only the source vertex is active and other vertices are
activated upon receiving a message in BFS traversal order. Network
communication initially grows and then shrinks with each iteration"
(Section 5.1.3).  Distances propagate along out-edges (uni-directional);
edges have unit weight by default (PowerGraph's default when the dataset
carries none), with optional per-edge weights.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.analytics.workloads.base import (
    IterationActivity,
    Workload,
    check_at_least_one,
)
from repro.errors import ConfigurationError
from repro.graph.digraph import Graph


class SingleSourceShortestPath(Workload):
    """Frontier-based SSSP from a fixed source (uni-directional).

    Parameters
    ----------
    source:
        Start vertex.  The paper randomly selects one per dataset and
        keeps it fixed across experiments — the harness does the same.
    edge_weights:
        Optional non-negative per-edge weights (unit when omitted).
    """

    name = "sssp"
    direction = "uni"

    def __init__(self, source: int = 0, edge_weights=None,
                 max_iterations: int = 100_000):
        if source < 0:
            raise ConfigurationError("source must be a valid vertex id")
        check_at_least_one("max_iterations", max_iterations)
        self.source = source
        self.edge_weights = (np.asarray(edge_weights, dtype=np.float64)
                             if edge_weights is not None else None)
        if self.edge_weights is not None:
            nan = np.flatnonzero(np.isnan(self.edge_weights))
            if nan.size:
                raise ConfigurationError(
                    f"edge weights must be numbers: edge {nan[0]} is NaN")
            if (self.edge_weights < 0).any():
                raise ConfigurationError("edge weights must be non-negative")
        self.max_iterations = max_iterations
        self._values: np.ndarray | None = None

    def iterations(self, graph: Graph) -> Iterator[IterationActivity]:
        n = graph.num_vertices
        if n == 0:
            return
        if self.source >= n:
            raise ConfigurationError(
                f"source {self.source} out of range for {n} vertices"
            )
        src, dst = graph.src, graph.dst
        weights = (self.edge_weights if self.edge_weights is not None
                   else np.ones(graph.num_edges))
        if weights.shape != (graph.num_edges,):
            raise ConfigurationError("edge_weights must have one entry per edge")

        dist = np.full(n, np.inf)
        dist[self.source] = 0.0
        frontier = np.zeros(n, dtype=bool)
        frontier[self.source] = True

        for _step in range(self.max_iterations):
            if not frontier.any():
                break
            sends = frontier.copy()
            candidate = dist.copy()
            active_edges = frontier[src]
            if active_edges.any():
                np.minimum.at(candidate, dst[active_edges],
                              dist[src[active_edges]] + weights[active_edges])
            changed = candidate < dist
            dist = candidate
            self._values = dist
            yield IterationActivity(
                sends_forward=sends,
                sends_reverse=None,
                changed=changed,
            )
            frontier = changed
