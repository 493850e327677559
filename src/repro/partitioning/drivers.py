"""The three stream drivers the greedy SGP partitioners run through.

The paper (Section 3) frames every SGP algorithm as one per-arrival
``argmax h(a_i, P^t)`` under a balance term.  The loop that takes that
argmax lives here once per stream model; an algorithm only builds the
state it scores with.

* :class:`VertexStreamPartitioner` — vertex streams: LDG, FENNEL, their
  restreamed variants and the Appendix-A capacity and weight variants,
  which differ only in their scoring kernel
  (:mod:`repro.partitioning.kernels`).  Pass 0 counts each arrival's
  neighbours among the placements made so far; a later pass counts them
  in the restreaming mixed view against the previous pass (Nishimura &
  Ugander).  The argmax ties to the lowest ``kernel.tie_key`` entry,
  then to the tie-break RNG, and every ``decision_sample_every``-th
  decision emits an ``sgp.decision`` span while tracing is on.
* :class:`DegreeStatePartitioner` — edge streams scored against partial
  degrees: HDRF, PowerGraph-greedy and DBH with partial degrees.  It
  builds the degree state (exact counters or a count-min sketch) and
  the algorithm's chunk-driven core, then feeds the core
  :func:`~repro.partitioning.kernels.iter_edge_chunks`.
* :class:`RevisitingEdgeCutPartitioner` — edge streams placed as
  vertices, with updates: IOGP and Leopard.  A vertex gets a home the
  first time it shows up and is revisited each time its observed degree
  doubles; an algorithm only names the first home and the better one.
"""

from __future__ import annotations

from abc import abstractmethod

import numpy as np

from repro.errors import ConfigurationError
from repro.partitioning.base import (
    UNASSIGNED,
    EdgePartition,
    EdgePartitioner,
    VertexPartition,
    VertexPartitioner,
    check_finite_at_least,
    check_num_partitions,
    iter_edge_arrivals,
)
from repro.partitioning.degree_state import DEGREE_STATES, make_degree_state
from repro.partitioning.kernels import (
    argmax_tie_least_loaded,
    iter_edge_chunks,
    iter_vertex_arrivals,
)
from repro.rng import SeededHash, make_rng
from repro.telemetry import get_tracer


class VertexStreamPartitioner(VertexPartitioner):
    """Vertex-stream driver; subclasses build the scoring kernel.

    ``num_passes`` above 1 restreams the graph; before each later pass
    ``_begin_pass`` resets the kernel (re-FENNEL anneals α there).
    """

    num_passes = 1

    @abstractmethod
    def _make_kernel(self, k: int, num_vertices: int, num_edges: int | None):
        """The scoring kernel for one run."""

    def _begin_pass(self, kernel, pass_index: int) -> None:
        kernel.begin_pass()

    def partition_stream(self, stream, num_partitions: int, *,
                         num_vertices: int,
                         num_edges: int | None = None) -> VertexPartition:
        k = check_num_partitions(num_partitions)
        rng = make_rng(self.seed)
        if num_edges is None:
            graph = getattr(stream, "graph", None)
            num_edges = graph.num_edges if graph is not None else None
        kernel = self._make_kernel(k, num_vertices, num_edges)
        sizes = kernel.sizes
        tie_key = kernel.tie_key
        score_counts = kernel.score_counts
        place = kernel.place
        # Decision tracing: one `if 0:` branch per vertex when disabled —
        # no tracer calls, no allocations (the overhead tests assert it).
        tracer = get_tracer()
        trace_every = tracer.decision_sample_every if tracer.enabled else 0
        decision = 0

        count = kernel.neighbor_counts
        for pass_index in range(self.num_passes):
            if pass_index:
                self._begin_pass(kernel, pass_index)
                count = kernel.mixed_counts
            for vertex, neighbors in iter_vertex_arrivals(stream):
                scores = score_counts(count(neighbors))
                target = argmax_tie_least_loaded(scores, tie_key, rng)
                if trace_every:
                    if decision % trace_every == 0:
                        tracer.point(
                            "sgp.decision", float(decision),
                            algorithm=self.name, vertex=int(vertex),
                            chosen=int(target),
                            ties=int(np.count_nonzero(scores == scores.max())),
                            # -inf marks capacity-masked partitions;
                            # JSON-ify the mask as null so traces stay
                            # standard JSON.
                            scores=[float(s) if np.isfinite(s) else None
                                    for s in scores],
                            state_size=int(sizes.sum()))
                    decision += 1
                place(vertex, target)
        return VertexPartition(k, kernel.export_assignment(),
                               algorithm=self.name)


class DegreeStatePartitioner(EdgePartitioner):
    """Edge-stream driver over a partial-degree state.

    ``state`` is ``"exact"`` (counters bit-identical to a scalar loop)
    or ``"sketch"`` (count-min estimates in ``8·width·depth`` bytes);
    subclasses build the chunk-driven core that scores against it.
    """

    def __init__(self, state: str, sketch_width: int,
                 sketch_depth: int) -> None:
        if state not in DEGREE_STATES:
            raise ConfigurationError(
                f"unknown degree state {state!r}; expected one of "
                f"{DEGREE_STATES}")
        check_finite_at_least("sketch_width", sketch_width, 1)
        check_finite_at_least("sketch_depth", sketch_depth, 1)
        self.state = state
        self.sketch_width = sketch_width
        self.sketch_depth = sketch_depth

    @abstractmethod
    def _make_core(self, k: int, num_vertices: int, num_edges: int,
                   degrees):
        """The chunk-driven core for one run, scoring against *degrees*."""

    def partition_stream(self, stream, num_partitions: int, *,
                         num_vertices: int, num_edges: int) -> EdgePartition:
        k = check_num_partitions(num_partitions)
        assignment = np.full(num_edges, -1, dtype=np.int32)
        degrees = make_degree_state(self.state, num_vertices,
                                    sketch_width=self.sketch_width,
                                    sketch_depth=self.sketch_depth)
        core = self._make_core(k, num_vertices, num_edges, degrees)
        for edge_ids, src_arr, dst_arr in iter_edge_chunks(stream):
            core.process_chunk(edge_ids, src_arr, dst_arr, assignment)
        return EdgePartition(k, assignment, algorithm=self.name)


class RevisitState:
    """One run of a :class:`RevisitingEdgeCutPartitioner`: homes, loads,
    observed degrees (a self-loop counts twice) and ``neighbor_counts[v,
    p]``, v's arrived edges whose other endpoint was on ``p`` then."""

    def __init__(self, k: int, num_vertices: int, balance_slack: float,
                 hash_seed: int) -> None:
        self.capacity = max(1.0, balance_slack * num_vertices / k)
        self.hash = SeededHash(k, hash_seed)
        self.assignment = np.full(num_vertices, UNASSIGNED, dtype=np.int32)
        self.sizes = np.zeros(k, dtype=np.int64)
        self.neighbor_counts = np.zeros((num_vertices, k), dtype=np.int32)
        self.degree = np.zeros(num_vertices, dtype=np.int64)


class RevisitingEdgeCutPartitioner(EdgePartitioner):
    """Edge-stream driver that places vertices and revisits them.

    An endpoint seen for the first time gets ``_first_home``; an endpoint
    whose observed degree reaches the next power of two moves to
    ``_better_home`` if that names a partition with room below
    ``state.capacity`` (β·|V|/k).  Unseen vertices get the hash.
    """

    def __init__(self, balance_slack: float, hash_seed: int) -> None:
        check_finite_at_least("balance_slack (beta)", balance_slack, 1)
        self.balance_slack = balance_slack
        self.hash_seed = hash_seed
        self.last_reassignments = 0

    @abstractmethod
    def _first_home(self, state: RevisitState, vertex: int,
                    other: int) -> int:
        """Home of *vertex*, first seen on an edge to *other*."""

    @abstractmethod
    def _better_home(self, state: RevisitState, vertex: int) -> int | None:
        """Where a revisited *vertex* should move, or ``None`` to stay."""

    def _finish(self, state: RevisitState) -> None:
        """Called once every vertex has a home."""

    def partition_stream(self, stream, num_partitions: int, *,
                         num_vertices: int,
                         num_edges: int | None = None) -> VertexPartition:
        k = check_num_partitions(num_partitions)
        state = RevisitState(k, num_vertices, self.balance_slack,
                             self.hash_seed)
        assignment, sizes = state.assignment, state.sizes
        neighbor_counts, degree = state.neighbor_counts, state.degree
        next_check = np.ones(num_vertices, dtype=np.int64)
        reassignments = 0
        for _eid, src, dst in iter_edge_arrivals(stream):
            for vertex, other in ((src, dst), (dst, src)):
                if assignment[vertex] == UNASSIGNED:
                    home = self._first_home(state, vertex, other)
                    assignment[vertex] = home
                    sizes[home] += 1
            neighbor_counts[src, assignment[dst]] += 1
            neighbor_counts[dst, assignment[src]] += 1
            for vertex in (src, dst):
                degree[vertex] += 1
                if degree[vertex] < next_check[vertex]:
                    continue
                next_check[vertex] *= 2
                target = self._better_home(state, vertex)
                if target is not None and sizes[target] + 1 <= state.capacity:
                    sizes[assignment[vertex]] -= 1
                    sizes[target] += 1
                    assignment[vertex] = target
                    reassignments += 1
        unseen = np.flatnonzero(assignment == UNASSIGNED)
        assignment[unseen] = state.hash(unseen)
        sizes += np.bincount(assignment[unseen], minlength=k)
        self.last_reassignments = reassignments
        self._finish(state)
        return VertexPartition(k, assignment, algorithm=self.name)
