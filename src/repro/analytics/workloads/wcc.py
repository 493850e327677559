"""Weakly Connected Components — the paper's shrinking-activity workload.

Min-label propagation: every vertex starts as its own component, then
repeatedly adopts the minimum label among its neighbours *regardless of
edge direction* until a fixed point.  "Unlike PageRank, vertices are only
activated with incoming messages and therefore network communication
shrinks and workload per machine varies at each iteration"
(Section 5.1.3).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.analytics.workloads.base import (
    IterationActivity,
    Workload,
    check_at_least_one,
)
from repro.graph.digraph import Graph


class WeaklyConnectedComponents(Workload):
    """WCC by undirected min-label propagation (bi-directional)."""

    name = "wcc"
    direction = "bi"

    def __init__(self, max_iterations: int = 1000):
        check_at_least_one("max_iterations", max_iterations)
        self.max_iterations = max_iterations
        self._values: np.ndarray | None = None

    def iterations(self, graph: Graph) -> Iterator[IterationActivity]:
        n = graph.num_vertices
        if n == 0:
            return
        src, dst = graph.src, graph.dst
        labels = np.arange(n, dtype=np.int64)
        active = np.ones(n, dtype=bool)

        for _step in range(self.max_iterations):
            if not active.any():
                break
            sends = active.copy()
            candidate = labels.copy()
            # Forward: active sources push their label to targets.
            fwd = active[src]
            if fwd.any():
                np.minimum.at(candidate, dst[fwd], labels[src[fwd]])
            # Reverse: active targets push their label to sources.
            rev = active[dst]
            if rev.any():
                np.minimum.at(candidate, src[rev], labels[dst[rev]])
            changed = candidate < labels
            labels = candidate
            self._values = labels
            yield IterationActivity(
                sends_forward=sends,
                sends_reverse=sends,
                changed=changed,
            )
            active = changed
