"""Pre-kernel reference implementations of the streaming hot loops.

These are verbatim snapshots of the scalar, allocate-per-arrival
implementations that shipped before :mod:`repro.partitioning.kernels`
existed (minus decision tracing, which never affects placement).  They
serve two purposes:

* the **golden-digest equivalence tests** assert that the kernelized
  partitioners produce *bit-identical* assignments to these loops for
  every (algorithm, seed, stream order) pair in the test matrix — the
  port is a pure performance change, never a behavioural one;
* the ``partitioning`` suite of ``benchmarks/bench.py`` times them as
  the "before" side of the before/after speedup it records in
  ``BENCH_partitioning.json``.

Nothing else should import this module; production code paths use the
kernelized classes registered in :mod:`repro.partitioning.registry`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.partitioning.base import (
    UNASSIGNED,
    EdgePartition,
    VertexPartition,
    argmax_with_ties,
    argmin_with_ties,
    check_num_partitions,
    edge_stream_arrays,
    iter_edge_arrivals,
)
from repro.rng import SeededHash, make_rng


class ReferenceLdg:
    """Scalar LDG loop (fresh bincount + score array per arrival)."""

    name = "ldg"

    def __init__(self, balance_slack: float = 1.0, seed=None):
        self.balance_slack = balance_slack
        self.seed = seed

    def partition(self, graph, num_partitions, *, order="random", seed=None):
        from repro.graph.stream import VertexStream
        stream = VertexStream(graph, order=order, seed=seed)
        return self.partition_stream(stream, num_partitions,
                                     num_vertices=graph.num_vertices)

    def partition_stream(self, stream, num_partitions, *, num_vertices):
        k = check_num_partitions(num_partitions)
        rng = make_rng(self.seed)
        capacity = max(1.0, math.ceil(self.balance_slack * num_vertices / k))
        assignment = np.full(num_vertices, UNASSIGNED, dtype=np.int32)
        sizes = np.zeros(k, dtype=np.int64)
        for vertex, neighbors in stream:
            placed = assignment[neighbors]
            placed = placed[placed != UNASSIGNED]
            if placed.size:
                counts = np.bincount(placed, minlength=k)
            else:
                counts = np.zeros(k, dtype=np.int64)
            scores = counts * (1.0 - sizes / capacity)
            target = argmax_with_ties(scores, tie_break=sizes, rng=rng)
            assignment[vertex] = target
            sizes[target] += 1
        return VertexPartition(k, assignment, algorithm=self.name)


class ReferenceFennel:
    """Scalar FENNEL loop (per-arrival vector power + capacity mask)."""

    name = "fennel"

    def __init__(self, gamma: float = 1.5, alpha: float | None = None,
                 load_cap: float = 1.1, seed=None):
        self.gamma = gamma
        self.alpha = alpha
        self.load_cap = load_cap
        self.seed = seed

    def _resolve_alpha(self, k, num_vertices, num_edges):
        if self.alpha is not None:
            return self.alpha
        n = max(num_vertices, 1)
        return float(np.sqrt(k) * num_edges / n ** 1.5)

    def partition(self, graph, num_partitions, *, order="random", seed=None):
        from repro.graph.stream import VertexStream
        stream = VertexStream(graph, order=order, seed=seed)
        return self.partition_stream(stream, num_partitions,
                                     num_vertices=graph.num_vertices)

    def partition_stream(self, stream, num_partitions, *, num_vertices,
                         num_edges=None):
        k = check_num_partitions(num_partitions)
        rng = make_rng(self.seed)
        if num_edges is None:
            graph = getattr(stream, "graph", None)
            num_edges = graph.num_edges if graph is not None else None
        alpha = self._resolve_alpha(k, num_vertices, num_edges)
        capacity = max(1.0, self.load_cap * num_vertices / k)
        assignment = np.full(num_vertices, UNASSIGNED, dtype=np.int32)
        sizes = np.zeros(k, dtype=np.int64)
        for vertex, neighbors in stream:
            placed = assignment[neighbors]
            placed = placed[placed != UNASSIGNED]
            if placed.size:
                counts = np.bincount(placed, minlength=k).astype(np.float64)
            else:
                counts = np.zeros(k, dtype=np.float64)
            scores = counts - alpha * self.gamma * sizes ** (self.gamma - 1.0)
            scores[sizes >= capacity] = -np.inf
            target = argmax_with_ties(scores, tie_break=sizes, rng=rng)
            assignment[vertex] = target
            sizes[target] += 1
        return VertexPartition(k, assignment, algorithm=self.name)


class _ReferenceRestreamingBase:
    """Scalar multi-pass restreaming driver."""

    name = "?"

    def __init__(self, num_passes: int = 5, seed=None):
        self.num_passes = num_passes
        self.seed = seed

    def _score(self, counts, sizes):
        raise NotImplementedError

    def _prepare(self, k, num_vertices, num_edges):
        pass

    def _begin_pass(self, pass_index):
        pass

    def partition(self, graph, num_partitions, *, order="random", seed=None):
        from repro.graph.stream import VertexStream
        stream = VertexStream(graph, order=order, seed=seed)
        return self.partition_stream(stream, num_partitions,
                                     num_vertices=graph.num_vertices)

    def partition_stream(self, stream, num_partitions, *, num_vertices,
                         num_edges=None):
        k = check_num_partitions(num_partitions)
        rng = make_rng(self.seed)
        if num_edges is None:
            graph = getattr(stream, "graph", None)
            num_edges = graph.num_edges if graph is not None else None
        self._prepare(k, num_vertices, num_edges)

        previous = np.full(num_vertices, UNASSIGNED, dtype=np.int32)
        current = previous
        for pass_index in range(self.num_passes):
            self._begin_pass(pass_index)
            current = np.full(num_vertices, UNASSIGNED, dtype=np.int32)
            sizes = np.zeros(k, dtype=np.int64)
            for vertex, neighbors in stream:
                fresh = current[neighbors]
                stale = previous[neighbors]
                view = np.where(fresh != UNASSIGNED, fresh, stale)
                view = view[view != UNASSIGNED]
                if view.size:
                    counts = np.bincount(view, minlength=k).astype(np.float64)
                else:
                    counts = np.zeros(k, dtype=np.float64)
                scores = self._score(counts, sizes)
                target = argmax_with_ties(scores, tie_break=sizes, rng=rng)
                current[vertex] = target
                sizes[target] += 1
            previous = current
        return VertexPartition(k, current, algorithm=self.name)


class ReferenceRestreamingLdg(_ReferenceRestreamingBase):
    name = "re-ldg"

    def __init__(self, num_passes: int = 5, balance_slack: float = 1.0,
                 seed=None):
        super().__init__(num_passes=num_passes, seed=seed)
        self.balance_slack = balance_slack
        self._capacity = 1.0

    def _prepare(self, k, num_vertices, num_edges):
        self._capacity = max(1.0, math.ceil(self.balance_slack
                                            * num_vertices / k))

    def _score(self, counts, sizes):
        return counts * (1.0 - sizes / self._capacity)


class ReferenceRestreamingFennel(_ReferenceRestreamingBase):
    name = "re-fennel"

    def __init__(self, num_passes: int = 5, gamma: float = 1.5,
                 alpha: float | None = None, load_cap: float = 1.1,
                 alpha_growth: float = 1.5, seed=None):
        super().__init__(num_passes=num_passes, seed=seed)
        # Parameter template only (never streams); seeded anyway so the
        # seed lane is complete end to end.
        self._template = ReferenceFennel(gamma=gamma, alpha=alpha,
                                         load_cap=load_cap, seed=seed)
        self.alpha_growth = alpha_growth
        self._alpha = 0.0
        self._pass_alpha = 0.0
        self._capacity = 1.0
        self._gamma = gamma

    def _prepare(self, k, num_vertices, num_edges):
        self._alpha = self._template._resolve_alpha(k, num_vertices, num_edges)
        self._capacity = max(1.0, self._template.load_cap * num_vertices / k)
        self._pass_alpha = self._alpha

    def _begin_pass(self, pass_index):
        self._pass_alpha = self._alpha * (self.alpha_growth ** pass_index)

    def _score(self, counts, sizes):
        scores = counts - self._pass_alpha * self._gamma * sizes ** (self._gamma - 1.0)
        scores[sizes >= self._capacity] = -np.inf
        return scores


class ReferenceHdrf:
    """Scalar HDRF loop (per-edge degree updates + score allocations)."""

    name = "hdrf"

    def __init__(self, balance_weight: float = 1.1,
                 balance_slack: float = 1.0, seed=None):
        self.balance_weight = balance_weight
        self.balance_slack = balance_slack
        self.seed = seed

    def partition(self, graph, num_partitions, *, order="random", seed=None):
        from repro.graph.stream import EdgeStream
        stream = EdgeStream(graph, order=order, seed=seed)
        return self.partition_stream(stream, num_partitions,
                                     num_vertices=graph.num_vertices,
                                     num_edges=graph.num_edges)

    def partition_stream(self, stream, num_partitions, *, num_vertices,
                         num_edges):
        k = check_num_partitions(num_partitions)
        rng = make_rng(self.seed)
        capacity = max(1.0, self.balance_slack * num_edges / k)
        assignment = np.full(num_edges, -1, dtype=np.int32)
        sizes = np.zeros(k, dtype=np.int64)
        replicas = np.zeros((num_vertices, k), dtype=bool)
        partial_degree = np.zeros(num_vertices, dtype=np.int64)
        balance = np.full(k, self.balance_weight, dtype=np.float64)
        balance_step = self.balance_weight / capacity
        for edge_id, src, dst in iter_edge_arrivals(stream):
            partial_degree[src] += 1
            partial_degree[dst] += 1
            d_u = partial_degree[src]
            d_v = partial_degree[dst]
            theta_u = d_u / (d_u + d_v)
            g_u = (2.0 - theta_u) * replicas[src]
            g_v = (1.0 + theta_u) * replicas[dst]
            scores = g_u + g_v + balance
            choice = argmax_with_ties(scores, tie_break=sizes, rng=rng)
            assignment[edge_id] = choice
            sizes[choice] += 1
            balance[choice] -= balance_step
            replicas[src, choice] = True
            replicas[dst, choice] = True
        return EdgePartition(k, assignment, algorithm=self.name)


class ReferenceDbh:
    """Scalar DBH loop (partial mode streams one edge at a time)."""

    name = "dbh"

    def __init__(self, hash_seed: int = 0, degrees: str = "exact"):
        self.hash_seed = hash_seed
        self.degrees = degrees

    def partition(self, graph, num_partitions, *, order="random", seed=None):
        from repro.graph.stream import EdgeStream
        stream = EdgeStream(graph, order=order, seed=seed)
        return self.partition_stream(stream, num_partitions,
                                     num_vertices=graph.num_vertices,
                                     num_edges=graph.num_edges)

    def partition_stream(self, stream, num_partitions, *, num_vertices,
                         num_edges):
        k = check_num_partitions(num_partitions)
        hasher = SeededHash(k, self.hash_seed)
        assignment = np.full(num_edges, -1, dtype=np.int32)
        if self.degrees == "exact":
            graph = stream.graph
            degree = graph.degree
            edge_ids, src, dst = edge_stream_arrays(stream)
            lower = np.where(degree[src] < degree[dst], src, dst)
            assignment[edge_ids] = hasher(lower)
        else:
            partial = np.zeros(num_vertices, dtype=np.int64)
            for edge_id, src, dst in iter_edge_arrivals(stream):
                partial[src] += 1
                partial[dst] += 1
                lower = src if partial[src] < partial[dst] else dst
                assignment[edge_id] = hasher(lower)
        return EdgePartition(k, assignment, algorithm=self.name)


class ReferenceGreedy:
    """Scalar PowerGraph-greedy loop."""

    name = "greedy"

    def __init__(self, seed=None):
        self.seed = seed

    def partition(self, graph, num_partitions, *, order="random", seed=None):
        from repro.graph.stream import EdgeStream
        stream = EdgeStream(graph, order=order, seed=seed)
        return self.partition_stream(stream, num_partitions,
                                     num_vertices=graph.num_vertices,
                                     num_edges=graph.num_edges)

    def partition_stream(self, stream, num_partitions, *, num_vertices,
                         num_edges):
        k = check_num_partitions(num_partitions)
        rng = make_rng(self.seed)
        assignment = np.full(num_edges, -1, dtype=np.int32)
        sizes = np.zeros(k, dtype=np.int64)
        replicas = np.zeros((num_vertices, k), dtype=bool)
        partial_degree = np.zeros(num_vertices, dtype=np.int64)
        for edge_id, src, dst in iter_edge_arrivals(stream):
            partial_degree[src] += 1
            partial_degree[dst] += 1
            mask_u = replicas[src]
            mask_v = replicas[dst]
            common = mask_u & mask_v
            if common.any():
                candidates = np.flatnonzero(common)
            elif mask_u.any() and mask_v.any():
                chosen = (mask_u if partial_degree[src] >= partial_degree[dst]
                          else mask_v)
                candidates = np.flatnonzero(chosen)
            elif mask_u.any():
                candidates = np.flatnonzero(mask_u)
            elif mask_v.any():
                candidates = np.flatnonzero(mask_v)
            else:
                candidates = np.arange(k)
            choice = candidates[argmin_with_ties(sizes[candidates], rng=rng)]
            assignment[edge_id] = choice
            sizes[choice] += 1
            replicas[src, choice] = True
            replicas[dst, choice] = True
        return EdgePartition(k, assignment, algorithm=self.name)


class ReferenceGrid:
    """Scalar grid-constrained loop (full-stream zip over Python lists)."""

    name = "grid"

    def __init__(self, hash_seed: int = 0, seed=None):
        self.hash_seed = hash_seed
        self.seed = seed

    def partition(self, graph, num_partitions, *, order="random", seed=None):
        from repro.graph.stream import EdgeStream
        stream = EdgeStream(graph, order=order, seed=seed)
        return self.partition_stream(stream, num_partitions,
                                     num_vertices=graph.num_vertices,
                                     num_edges=graph.num_edges)

    def partition_stream(self, stream, num_partitions, *, num_vertices,
                         num_edges):
        from repro.partitioning.vertex_cut.grid import constrained_sets
        k = check_num_partitions(num_partitions)
        rng = make_rng(self.seed)
        hasher = SeededHash(k, self.hash_seed)
        sets = constrained_sets(k)
        candidate_table = [[None] * k for _ in range(k)]
        for i in range(k):
            for j in range(k):
                inter = np.intersect1d(sets[i], sets[j], assume_unique=True)
                if inter.size == 0:
                    inter = np.union1d(sets[i], sets[j])
                candidate_table[i][j] = inter
        assignment = np.full(num_edges, -1, dtype=np.int32)
        sizes = np.zeros(k, dtype=np.int64)
        edge_ids, src_arr, dst_arr = edge_stream_arrays(stream)
        anchors_u = hasher(src_arr)
        anchors_v = hasher(dst_arr)
        for edge_id, anchor_u, anchor_v in zip(edge_ids.tolist(),
                                               anchors_u.tolist(),
                                               anchors_v.tolist()):
            candidates = candidate_table[anchor_u][anchor_v]
            choice = candidates[argmin_with_ties(sizes[candidates], rng=rng)]
            assignment[edge_id] = choice
            sizes[choice] += 1
        return EdgePartition(k, assignment, algorithm=self.name)


#: Reference implementation per registry name, for the equivalence tests
#: and the before/after benchmark.
REFERENCE_FACTORIES = {
    "ldg": ReferenceLdg,
    "fennel": ReferenceFennel,
    "re-ldg": ReferenceRestreamingLdg,
    "re-fennel": ReferenceRestreamingFennel,
    "hdrf": ReferenceHdrf,
    "dbh": ReferenceDbh,
    "greedy": ReferenceGreedy,
    "grid": ReferenceGrid,
}
