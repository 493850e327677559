"""Property-based tests (hypothesis) on the core partitioning invariants.

Every streaming partitioner, for any random graph, stream order and k,
must produce a complete assignment into [0, k) — and the structural
metrics must respect their analytic bounds.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph import Graph
from repro.metrics import (
    edge_cut_ratio,
    partition_balance,
    replication_factor,
    vertex_replica_counts,
)
from repro.partitioning import available_algorithms, make_partitioner
from repro.partitioning.base import VertexPartition

_SETTINGS = settings(max_examples=20, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@st.composite
def graphs(draw):
    """Small random multigraphs with 2..40 vertices, 1..120 edges."""
    n = draw(st.integers(min_value=2, max_value=40))
    m = draw(st.integers(min_value=1, max_value=120))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, m)
    offset = rng.integers(1, n, m)
    dst = (src + offset) % n
    return Graph(n, src, dst)


@pytest.mark.parametrize("algorithm", sorted(available_algorithms()))
@given(graph=graphs(), k=st.integers(min_value=1, max_value=9),
       order=st.sampled_from(["natural", "random", "bfs", "dfs"]))
@_SETTINGS
def test_property_partitioner_contract(algorithm, graph, k, order):
    """Completeness + range + metric bounds for every algorithm."""
    partitioner = make_partitioner(algorithm)
    partition = partitioner.partition(graph, k, order=order, seed=7)
    assert partition.is_complete()
    assert partition.num_partitions == k
    assert partition.assignment.min() >= 0
    assert partition.assignment.max() < k

    if isinstance(partition, VertexPartition):
        assert partition.num_vertices == graph.num_vertices
        ratio = edge_cut_ratio(graph, partition)
        assert 0.0 <= ratio <= 1.0
        if k == 1:
            assert ratio == 0.0
    else:
        assert partition.num_edges == graph.num_edges
        rf = replication_factor(graph, partition)
        assert 1.0 <= rf <= k
        counts = vertex_replica_counts(graph, partition)
        degree = graph.degree
        active = degree > 0
        assert np.all(counts[active] <= np.minimum(k, degree[active]))
        if k == 1:
            assert rf == 1.0
    assert partition_balance(graph, partition) >= 1.0


@given(graph=graphs(), k=st.integers(min_value=1, max_value=6))
@_SETTINGS
def test_property_conversion_preserves_cut_structure(graph, k):
    """Appendix B conversion: the derived placement's mirrors-for-targets
    equal the distinct source partitions seen by each vertex's in-edges."""
    from repro.partitioning import HashVertexPartitioner, edge_cut_to_edge_partition
    vp = HashVertexPartitioner().partition(graph, k)
    ep = edge_cut_to_edge_partition(graph, vp)
    assert np.array_equal(ep.assignment, vp.assignment[graph.src])
    counts = vertex_replica_counts(graph, ep)
    # Recompute independently per vertex.
    for v in range(graph.num_vertices):
        parts = set()
        for u in graph.in_neighbors(v).tolist():
            parts.add(int(vp.assignment[u]))
        for _w in graph.out_neighbors(v).tolist():
            parts.add(int(vp.assignment[v]))
        assert counts[v] == len(parts)


@given(graph=graphs(), k=st.integers(min_value=1, max_value=9),
       threshold=st.integers(min_value=1, max_value=8),
       hash_seed=st.integers(min_value=0, max_value=2**16),
       order=st.sampled_from(["natural", "random", "bfs"]))
@_SETTINGS
def test_property_ginger_in_edge_placement(graph, k, threshold, hash_seed,
                                           order):
    """Ginger's placement rule, checked from its definition rather than
    its code: a vertex with in-degree <= threshold keeps every in-edge on
    its master, every other in-edge lies where its source hashes, and
    every vertex has a master."""
    from repro.partitioning import GingerPartitioner
    from repro.rng import SeededHash
    partition = GingerPartitioner(
        degree_threshold=threshold, hash_seed=hash_seed, seed=3,
    ).partition(graph, k, order=order, seed=5)
    masters = partition.masters
    assert masters.shape == (graph.num_vertices,)
    assert np.all((masters >= 0) & (masters < k))
    in_degree = np.bincount(graph.dst, minlength=graph.num_vertices)
    hasher = SeededHash(k, hash_seed)
    for edge, (src, dst) in enumerate(zip(graph.src.tolist(),
                                          graph.dst.tolist())):
        expected = (masters[dst] if in_degree[dst] <= threshold
                    else hasher(src))
        assert partition.assignment[edge] == expected, (edge, src, dst)


@given(graph=graphs(), k=st.integers(min_value=2, max_value=6),
       seed=st.integers(min_value=0, max_value=100))
@_SETTINGS
def test_property_multilevel_balance(graph, k, seed):
    """The offline partitioner respects its balance slack whenever the
    constraint is satisfiable (unit weights always are, up to rounding)."""
    from repro.partitioning import multilevel_partition
    partition = multilevel_partition(graph, k, balance_slack=1.3, seed=seed)
    assert partition.is_complete()
    sizes = partition.sizes()
    assert sizes.max() <= max(1.3 * graph.num_vertices / k + 1, 1)


@given(graph=graphs())
@_SETTINGS
def test_property_placement_consistency(graph):
    """Placement invariants: replica counts bound mirrors, masters valid."""
    from repro.analytics import Placement
    from repro.partitioning import HashEdgePartitioner
    ep = HashEdgePartitioner().partition(graph, 4)
    placement = Placement(graph, ep)
    assert placement.master.min() >= 0
    assert placement.master.max() < 4
    assert np.all(placement.mirror_counts_out <= placement.mirror_counts_all)
    assert np.all(placement.replica_counts >= 1)
    assert placement.edges_per_partition().sum() == graph.num_edges


@given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=1,
                max_size=50))
@_SETTINGS
def test_property_distribution_summary_ordering(values):
    from repro.metrics import summarize
    dist = summarize(values)
    assert dist.minimum <= dist.p25 <= dist.median <= dist.p75 <= dist.maximum
    assert dist.minimum <= dist.mean <= dist.maximum


@given(graph=graphs(), k=st.integers(min_value=1, max_value=5))
@_SETTINGS
def test_property_engine_conserves_pagerank(graph, k):
    """Distribution never changes the numerical result: ranks sum to 1
    and match a single-partition run."""
    from repro.analytics import PageRank, run_workload
    from repro.partitioning import HashVertexPartitioner
    vp = HashVertexPartitioner().partition(graph, k)
    workload = PageRank(num_iterations=5)
    run_workload(graph, vp, workload)
    assert workload.result().sum() == pytest.approx(1.0, abs=1e-6)


# ----------------------------------------------------------------------
# hermes_refine: the balance/budget invariants the online service leans on
# ----------------------------------------------------------------------
def _count_cut(graph, assignment):
    return int((assignment[graph.src] != assignment[graph.dst]).sum())


@given(graph=graphs(), k=st.integers(min_value=2, max_value=6),
       slack=st.floats(min_value=1.0, max_value=1.5),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
@_SETTINGS
def test_property_hermes_refine_invariants(graph, k, slack, seed):
    """Refinement never worsens the cut nor overfills a partition.

    Capacity: a partition never *grows past* ``slack * n/k`` — a
    partition already over capacity in the input can only shrink or
    stay, never gain vertices.
    """
    from repro.partitioning import LdgPartitioner, hermes_refine

    before = LdgPartitioner(seed=3).partition(graph, k, order="natural",
                                              seed=3)
    after = hermes_refine(graph, before, balance_slack=slack, seed=seed)
    assert after.is_complete()
    assert after.num_vertices == graph.num_vertices
    cut_before = _count_cut(graph, before.assignment)
    cut_after = _count_cut(graph, after.assignment)
    assert cut_after <= cut_before
    capacity = max(1.0, slack * graph.num_vertices / k)
    limit = np.maximum(before.sizes(), np.floor(capacity))
    assert np.all(after.sizes() <= limit)
    # The input is never modified in place.
    assert _count_cut(graph, before.assignment) == cut_before


@given(graph=graphs(), k=st.integers(min_value=2, max_value=6),
       budget=st.integers(min_value=0, max_value=8),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
@_SETTINGS
def test_property_hermes_refine_budget(graph, k, budget, seed):
    """``max_moves`` bounds the vertices whose assignment changes."""
    from repro.partitioning import LdgPartitioner, hermes_refine

    before = LdgPartitioner(seed=3).partition(graph, k, order="natural",
                                              seed=3)
    after = hermes_refine(graph, before, max_moves=budget, seed=seed)
    moved = int((after.assignment != before.assignment).sum())
    assert moved <= budget
    assert _count_cut(graph, after.assignment) <= \
        _count_cut(graph, before.assignment)


@given(graph=graphs(), k=st.integers(min_value=2, max_value=4))
@_SETTINGS
def test_property_hermes_refine_rejects_mismatched_graph(graph, k):
    """A partition built for a different materialisation is refused."""
    from repro.errors import PartitioningError
    from repro.graph import Graph
    from repro.partitioning import LdgPartitioner, hermes_refine

    partition = LdgPartitioner(seed=3).partition(graph, k, order="natural",
                                                 seed=3)
    bigger = Graph(graph.num_vertices + 1, graph.src, graph.dst)
    with pytest.raises(PartitioningError):
        hermes_refine(bigger, partition, seed=0)
