"""Community detection by synchronous label propagation.

Every vertex starts in its own community and repeatedly adopts the most
frequent label among its (undirected) neighbours, ties broken toward the
smaller label.  Activity shrinks as labels stabilise.  Communication is
all-active early and sparse late, sitting between PageRank's uniform and
SSSP's frontier profiles — a useful additional probe of how partitioning
interacts with phase-changing workloads.
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


class LabelPropagation(Workload):
    """Synchronous label propagation (bi-directional).

    ``result()`` is the final community label per vertex.
    """

    name = "label-propagation"
    direction = "bi"

    def __init__(self, max_iterations: int = 20):
        check_at_least_one("max_iterations", max_iterations)
        self.max_iterations = max_iterations
        self._values: np.ndarray | None = None

    def iterations(self, graph: Graph) -> Iterator[IterationActivity]:
        n = graph.num_vertices
        if n == 0:
            return
        # Undirected incidence as (owner, neighbor) pairs, pre-sorted per
        # owner so per-iteration majority counting is vectorised.
        owners = np.concatenate([graph.src, graph.dst])
        others = np.concatenate([graph.dst, graph.src])
        order = np.argsort(owners, kind="stable")
        owners = owners[order]
        others = others[order]

        labels = np.arange(n, dtype=np.int64)
        previous = None
        active = np.ones(n, dtype=bool)

        for _step in range(self.max_iterations):
            if not active.any():
                break
            sends = active.copy()
            new_labels = self._majority_labels(n, owners, others, labels)
            if previous is not None and np.array_equal(new_labels, previous):
                # Synchronous LP oscillates with period 2 on near-bipartite
                # structures; a repeat of the state from two steps ago is
                # the standard stopping criterion.
                break
            changed = new_labels != labels
            previous = labels
            labels = new_labels
            self._values = labels
            yield IterationActivity(
                sends_forward=sends,
                sends_reverse=sends,
                changed=changed,
            )
            # A vertex re-evaluates while any neighbour changed; computing
            # the exact activation set costs one more scatter, so we use
            # the standard push-based activation.
            active = np.zeros(n, dtype=bool)
            if changed.any():
                active[others[changed[owners]]] = True
                active |= changed

    @staticmethod
    def _majority_labels(n, owners, others, labels) -> np.ndarray:
        """Most frequent neighbour label per vertex (ties: smaller label).

        Vectorised: sort (owner, neighbour-label) pairs, count runs, then
        pick each owner's best run — smaller label wins ties because the
        pairs are sorted ascending.
        """
        neighbor_labels = labels[others]
        order = np.lexsort((neighbor_labels, owners))
        o_sorted = owners[order]
        l_sorted = neighbor_labels[order]
        if o_sorted.size == 0:
            return labels.copy()
        # Run-length encode (owner, label) runs.
        boundary = np.empty(o_sorted.size, dtype=bool)
        boundary[0] = True
        boundary[1:] = (o_sorted[1:] != o_sorted[:-1]) | \
            (l_sorted[1:] != l_sorted[:-1])
        run_starts = np.flatnonzero(boundary)
        run_owners = o_sorted[run_starts]
        run_labels = l_sorted[run_starts]
        run_lengths = np.diff(np.append(run_starts, o_sorted.size))
        # Per owner, keep the first maximal-count run (ascending label
        # order within an owner makes "first maximal" = smallest label).
        best = {}
        for owner, label, count in zip(run_owners.tolist(),
                                       run_labels.tolist(),
                                       run_lengths.tolist()):
            current = best.get(owner)
            if current is None or count > current[1]:
                best[owner] = (label, count)
        result = labels.copy()
        for owner, (label, _count) in best.items():
            result[owner] = label
        return result
