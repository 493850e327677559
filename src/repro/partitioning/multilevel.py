"""Multilevel k-way graph partitioning (the paper's MTS baseline).

The paper uses METIS as the offline quality baseline.  Since this repo
builds everything from scratch, this module implements the classic
multilevel scheme (Karypis & Kumar):

1. **Coarsening** — heavy-edge matching collapses matched vertex pairs,
   aggregating edge and vertex weights, until the graph is small;
2. **Initial partitioning** — greedy balanced region growing over the
   coarsest graph;
3. **Uncoarsening + refinement** — each level projects the coarse
   assignment back and improves it with gain-driven boundary moves under
   the balance constraint (a lightweight Fiduccia–Mattheyses variant).

Vertex weights are first-class: the workload-aware partitioning of the
paper's Figure 8 balances on *access counts* rather than vertex counts,
and plugs in here directly.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.digraph import Graph
from repro.partitioning.base import (
    VertexPartition,
    check_finite_at_least,
    check_num_partitions,
)
from repro.rng import make_rng

#: Stop coarsening once the graph has at most this many vertices per part.
_COARSEST_PER_PART = 12
#: Stop coarsening when a level shrinks less than this factor.
_MIN_SHRINK = 0.95
#: Refinement passes per level.
_REFINE_PASSES = 4


class _Level:
    """One level of the multilevel hierarchy: an undirected weighted CSR."""

    __slots__ = ("indptr", "indices", "weights", "vweights", "coarse_map")

    def __init__(self, indptr, indices, weights, vweights, coarse_map=None):
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.vweights = vweights
        self.coarse_map = coarse_map  # fine vertex -> coarse vertex

    @property
    def num_vertices(self) -> int:
        return self.vweights.size


def _undirected_csr(graph: Graph, vertex_weights: np.ndarray) -> _Level:
    """Symmetrise the directed graph, merging parallel edges into weights."""
    n = graph.num_vertices
    src = np.concatenate([graph.src, graph.dst])
    dst = np.concatenate([graph.dst, graph.src])
    keep = src != dst
    src, dst = src[keep], dst[keep]
    return _csr_from_weighted_edges(n, src, dst,
                                    np.ones(src.size, dtype=np.float64),
                                    vertex_weights)


def _csr_from_weighted_edges(n, src, dst, w, vweights) -> _Level:
    if src.size == 0:
        return _Level(np.zeros(n + 1, np.int64), np.empty(0, np.int64),
                      np.empty(0, np.float64), vweights)
    keys = src.astype(np.int64) * n + dst
    order = np.argsort(keys, kind="stable")
    keys_sorted = keys[order]
    unique_keys, start = np.unique(keys_sorted, return_index=True)
    summed = np.add.reduceat(w[order], start)
    u_src = (unique_keys // n).astype(np.int64)
    u_dst = (unique_keys % n).astype(np.int64)
    counts = np.bincount(u_src, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return _Level(indptr, u_dst, summed.astype(np.float64), vweights)


def _owners(level: _Level) -> np.ndarray:
    """The row (vertex) of every CSR entry."""
    return np.repeat(np.arange(level.num_vertices), np.diff(level.indptr))


def _heavy_edge_matching(level: _Level, rng,
                         max_vertex_weight: float) -> np.ndarray:
    """Match each vertex with its heaviest unmatched neighbour.

    Matches that would create a coarse vertex heavier than
    ``max_vertex_weight`` are skipped — the standard METIS guard that
    keeps coarse vertices small enough for the balance constraint to be
    satisfiable at the coarsest level.  Ties go to the neighbour that
    comes first in the CSR row.
    """
    n = level.num_vertices
    match = [-1] * n
    visit = rng.permutation(n)
    owner = _owners(level)
    indices, vweights = level.indices, level.vweights
    # Each row's neighbours that fit under the cap, heaviest edge first
    # and in CSR order among equal weights: the first one still unmatched
    # is the one a scan for the strictly heaviest would keep.
    by_weight = np.lexsort((-level.weights, owner))
    fits = ((vweights[owner] + vweights[indices] <= max_vertex_weight)
            & (indices != owner))[by_weight]
    candidates = indices[by_weight][fits].tolist()
    bounds = [0] + np.cumsum(np.bincount(owner[by_weight][fits],
                                         minlength=n)).tolist()
    for u in visit.tolist():
        if match[u] != -1:
            continue
        match[u] = u
        for v in candidates[bounds[u]:bounds[u + 1]]:
            if match[v] == -1:
                match[u] = v
                match[v] = u
                break
    return np.array(match, dtype=np.int64)


def _max_coarse_weight(level: _Level, k: int) -> float:
    """Cap on a single coarse vertex's weight during matching."""
    total = float(level.vweights.sum())
    return max(total / (k * 4.0), float(level.vweights.max()))


def _coarsen(level: _Level, rng, k: int) -> _Level:
    """One coarsening step: contract a heavy-edge matching."""
    n = level.num_vertices
    match = _heavy_edge_matching(level, rng, _max_coarse_weight(level, k))
    # Coarse id: the smaller endpoint of each matched pair names the pair.
    representative = np.minimum(np.arange(n), match)
    unique_reps, coarse_map = np.unique(representative, return_inverse=True)
    coarse_n = unique_reps.size

    src = coarse_map[_owners(level)]
    dst = coarse_map[level.indices]
    keep = src != dst
    vweights = np.bincount(coarse_map, weights=level.vweights,
                           minlength=coarse_n)
    coarse = _csr_from_weighted_edges(coarse_n, src[keep], dst[keep],
                                      level.weights[keep], vweights)
    coarse.coarse_map = coarse_map
    return coarse


def _initial_partition(level: _Level, k: int, capacity: float, rng) -> np.ndarray:
    """Greedy balanced region growing on the coarsest graph."""
    n = level.num_vertices
    assignment = np.full(n, -1, dtype=np.int32)
    loads = np.zeros(k, dtype=np.float64)
    order = np.argsort(-level.vweights, kind="stable")
    indptr, indices = level.indptr, level.indices

    from collections import deque

    part = 0
    for seed_vertex in order.tolist():
        if assignment[seed_vertex] != -1:
            continue
        # Grow the currently lightest partition from this seed.
        part = int(np.argmin(loads))
        frontier = deque([seed_vertex])
        while frontier and loads[part] < capacity:
            u = frontier.popleft()
            if assignment[u] != -1:
                continue
            assignment[u] = part
            loads[part] += level.vweights[u]
            for pos in range(indptr[u], indptr[u + 1]):
                v = indices[pos]
                if assignment[v] == -1:
                    frontier.append(v)
    # Any stragglers go to the lightest partition.
    for u in np.flatnonzero(assignment == -1).tolist():
        part = int(np.argmin(loads))
        assignment[u] = part
        loads[part] += level.vweights[u]
    return assignment


def _refine(level: _Level, assignment: np.ndarray, k: int, capacity: float,
            rng, passes: int = _REFINE_PASSES) -> np.ndarray:
    """Gain-driven boundary moves (lightweight FM) under the balance cap.

    Each pass visits the boundary vertices in random order and moves each
    to the feasible partition it has the most edge weight to, if that
    beats the weight it keeps at home (the first such partition on ties).
    The edge weight every boundary vertex has to each partition comes
    from one ``bincount`` gain table per pass; a vertex's row is
    recomputed only when a neighbour moved earlier in the pass.
    ``bincount`` sums each cell in CSR order, so a cell holds exactly the
    float a scan of that vertex's row would.
    """
    n = level.num_vertices
    indptr, indices, weights = level.indptr, level.indices, level.weights
    bounds = indptr.tolist()
    loads = np.bincount(assignment, weights=level.vweights,
                        minlength=k).tolist()
    capacity = float(capacity)
    owner = _owners(level)

    for _pass in range(passes):
        moved = 0
        # Boundary vertices only: any vertex with a neighbour elsewhere.
        neighbor_parts = assignment[indices]
        is_boundary = np.zeros(n, dtype=bool)
        is_boundary[owner[neighbor_parts != assignment[owner]]] = True
        boundary = np.flatnonzero(is_boundary)
        if boundary.size == 0:
            break
        row_of = np.cumsum(is_boundary) - 1
        entries = is_boundary[owner]
        gains = np.bincount(row_of[owner[entries]] * k
                            + neighbor_parts[entries],
                            weights=weights[entries],
                            minlength=boundary.size * k).reshape(-1, k)
        internal = gains[np.arange(boundary.size), assignment[boundary]]
        # Per row, the partitions that beat home (gain > 0) in index
        # order; any other partition can never be the move.
        rows, parts = np.nonzero(gains > internal[:, None])
        option_part = parts.tolist()
        option_gain = (gains[rows, parts] - internal[rows]).tolist()
        per_row = np.bincount(rows, minlength=boundary.size)
        option_end = np.cumsum(per_row)
        option_start = option_end - per_row
        # CSR rows are symmetric, so a mover's neighbours are exactly the
        # vertices whose rows it makes stale.
        stale: set[int] = set()
        options: Iterable[tuple[int, float]]

        visit = rng.permutation(boundary)
        visit_rows = row_of[visit]
        for u, home, weight, start, end in zip(
                visit.tolist(), assignment[visit].tolist(),
                level.vweights[visit].tolist(),
                option_start[visit_rows].tolist(),
                option_end[visit_rows].tolist()):
            if u in stale:
                lo, hi = bounds[u], bounds[u + 1]
                to_part = np.bincount(assignment[indices[lo:hi]],
                                      weights=weights[lo:hi],
                                      minlength=k).tolist()
                keep = to_part[home]
                options = [(part, total - keep)
                           for part, total in enumerate(to_part)
                           if total > keep]
            elif start == end:
                continue
            else:
                options = zip(option_part[start:end], option_gain[start:end])
            best, best_gain = -1, 0.0
            for part, gain in options:
                if gain > best_gain and loads[part] + weight <= capacity:
                    best, best_gain = part, gain
            if best >= 0:
                assignment[u] = best
                loads[home] -= weight
                loads[best] += weight
                stale.update(indices[bounds[u]:bounds[u + 1]].tolist())
                moved += 1
        if moved == 0:
            break
    return assignment


def _rebalance(level: _Level, assignment: np.ndarray, k: int,
               capacity: float, rng) -> np.ndarray:
    """Force the balance constraint: evict minimum-damage vertices from
    overweight partitions into the lightest feasible ones."""
    indptr, indices, weights = level.indptr, level.indices, level.weights
    vweights = level.vweights
    loads = np.bincount(assignment, weights=vweights, minlength=k).astype(np.float64)

    for part in range(k):
        if loads[part] <= capacity:
            continue
        members = np.flatnonzero(assignment == part)
        # Cheapest-to-move first: vertices with the least internal edge
        # weight lose the least locality when evicted.
        internal = np.zeros(members.size, dtype=np.float64)
        for idx, u in enumerate(members.tolist()):
            lo, hi = indptr[u], indptr[u + 1]
            internal[idx] = weights[lo:hi][assignment[indices[lo:hi]] == part].sum()
        for u in members[np.argsort(internal, kind="stable")].tolist():
            if loads[part] <= capacity:
                break
            target = int(np.argmin(loads))
            if target == part:
                break
            assignment[u] = target
            loads[part] -= vweights[u]
            loads[target] += vweights[u]
    return assignment


def multilevel_partition(
    graph: Graph,
    num_partitions: int,
    *,
    vertex_weights=None,
    balance_slack: float = 1.05,
    seed=None,
) -> VertexPartition:
    """Offline multilevel k-way partitioning (MTS).

    Parameters
    ----------
    graph:
        Input (directed) graph; partitioning works on its undirected view.
    num_partitions:
        k.
    vertex_weights:
        Optional per-vertex load to balance (defaults to 1 per vertex).
        Figure 8's workload-aware variant passes access counts here.
    balance_slack:
        β: maximum partition weight is ``β · total / k``.
    """
    k = check_num_partitions(num_partitions)
    check_finite_at_least("balance_slack (beta)", balance_slack, 1)
    rng = make_rng(seed)
    n = graph.num_vertices
    if n == 0:
        return VertexPartition(k, np.empty(0, np.int32), algorithm="mts")
    if vertex_weights is None:
        vweights = np.ones(n, dtype=np.float64)
    else:
        vweights = np.asarray(vertex_weights, dtype=np.float64)
        if vweights.shape != (n,):
            raise ConfigurationError("vertex_weights must have one entry per vertex")
        bad = ~(np.isfinite(vweights) & (vweights >= 0))
        if bad.any():
            vertex = int(np.flatnonzero(bad)[0])
            raise ConfigurationError(
                f"vertex_weights must be finite and non-negative, got "
                f"{float(vweights[vertex])!r} for vertex {vertex}")
        # Zero-weight vertices still need somewhere to live; give them a
        # tiny weight so balance terms stay meaningful.
        positive = vweights[vweights > 0]
        floor = positive.min() * 1e-3 if positive.size else 1.0
        vweights = np.maximum(vweights, floor)

    capacity = balance_slack * vweights.sum() / k

    # Phase 1: coarsen.
    levels = [_undirected_csr(graph, vweights)]
    while (levels[-1].num_vertices > max(k * _COARSEST_PER_PART, 48)):
        coarse = _coarsen(levels[-1], rng, k)
        if coarse.num_vertices >= levels[-1].num_vertices * _MIN_SHRINK:
            break
        levels.append(coarse)

    # Phase 2: initial partition at the coarsest level.
    assignment = _initial_partition(levels[-1], k, capacity, rng)
    assignment = _rebalance(levels[-1], assignment, k, capacity, rng)
    assignment = _refine(levels[-1], assignment, k, capacity, rng)

    # Phase 3: project back and refine at every level.
    for level_index in range(len(levels) - 1, 0, -1):
        coarse = levels[level_index]
        fine = levels[level_index - 1]
        assignment = assignment[coarse.coarse_map]
        assignment = _refine(fine, assignment, k, capacity, rng)
        assignment = _rebalance(fine, assignment, k, capacity, rng)

    return VertexPartition(k, assignment.astype(np.int32), algorithm="mts")


class MultilevelPartitioner:
    """Object wrapper so MTS slots into the same registry as SGP algorithms.

    Unlike the streaming classes this consumes the whole graph — exactly
    the paper's setup, where METIS runs as a pre-processing step on a
    dedicated machine before loading.
    """

    name = "mts"
    cut_model = "edge-cut"

    def __init__(self, balance_slack: float = 1.05, seed=None):
        check_finite_at_least("balance_slack (beta)", balance_slack, 1)
        self.balance_slack = balance_slack
        self.seed = seed

    def partition(self, graph: Graph, num_partitions: int, *,
                  order: str = "random", seed=None,
                  vertex_weights=None) -> VertexPartition:
        # ``order`` is accepted (and ignored) for interface uniformity:
        # offline algorithms see the whole graph regardless of stream order.
        return multilevel_partition(
            graph, num_partitions,
            vertex_weights=vertex_weights,
            balance_slack=self.balance_slack,
            seed=seed if seed is not None else self.seed,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MultilevelPartitioner(balance_slack={self.balance_slack})"
