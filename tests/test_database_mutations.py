"""Tests for the write operations and mixed read/write workloads."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.database import (
    GraphMutationLog,
    WorkloadGenerator,
    delete_edge_plan,
    insert_edge_plan,
    mixed_read_write_bindings,
    plan_query,
    remove_vertex_plan,
    simulate_workload,
    update_vertex_plan,
)
from repro.database.mutations import MUTATION_KINDS
from repro.errors import ConfigurationError
from repro.graph import Graph
from repro.partitioning import HashVertexPartitioner, LdgPartitioner


class TestMutationPlans:
    def test_insert_edge_touches_both_endpoints(self, tiny_graph):
        plan = insert_edge_plan(tiny_graph, 0, 3)
        assert plan.kind == "insert_edge"
        assert sorted(plan.phases[0].tolist()) == [0, 3]
        assert plan.total_reads == 2

    def test_insert_self_edge_single_record(self, tiny_graph):
        plan = insert_edge_plan(tiny_graph, 2, 2)
        assert plan.total_reads == 1

    def test_update_vertex_single_partition(self, tiny_graph):
        plan = update_vertex_plan(tiny_graph, 4)
        assert plan.total_reads == 1
        assert plan.phases[0].tolist() == [4]

    def test_plan_query_dispatch(self, tiny_graph):
        assert plan_query(tiny_graph, "insert_edge", 0,
                          target_vertex=1).kind == "insert_edge"
        assert plan_query(tiny_graph, "update_vertex", 0).kind == \
            "update_vertex"
        with pytest.raises(ConfigurationError):
            plan_query(tiny_graph, "insert_edge", 0)

    def test_out_of_range_rejected(self, tiny_graph):
        with pytest.raises(ConfigurationError):
            insert_edge_plan(tiny_graph, 0, 99)
        with pytest.raises(ConfigurationError):
            update_vertex_plan(tiny_graph, -1)
        with pytest.raises(ConfigurationError):
            delete_edge_plan(tiny_graph, 99, 0)
        with pytest.raises(ConfigurationError):
            remove_vertex_plan(tiny_graph, -1)

    def test_delete_edge_mirrors_insert(self, tiny_graph):
        plan = delete_edge_plan(tiny_graph, 0, 3)
        assert plan.kind == "delete_edge"
        assert sorted(plan.phases[0].tolist()) == [0, 3]
        assert plan.total_reads == insert_edge_plan(tiny_graph, 0,
                                                    3).total_reads

    def test_remove_vertex_cascades_to_neighbors(self, tiny_graph):
        vertex = int(tiny_graph.src[0])
        plan = remove_vertex_plan(tiny_graph, vertex)
        assert plan.kind == "remove_vertex"
        assert plan.phases[0].tolist() == [vertex]
        neighbors = set(np.unique(tiny_graph.neighbors(vertex)).tolist())
        neighbors.discard(vertex)
        if neighbors:
            assert set(plan.phases[1].tolist()) == neighbors

    def test_all_kinds_dispatchable(self, tiny_graph):
        assert plan_query(tiny_graph, "delete_edge", 0,
                          target_vertex=3).kind == "delete_edge"
        assert plan_query(tiny_graph, "remove_vertex", 0).kind == \
            "remove_vertex"
        with pytest.raises(ConfigurationError):
            plan_query(tiny_graph, "delete_edge", 0)  # needs a target
        for kind in MUTATION_KINDS:
            target = 1 if kind in ("insert_edge", "delete_edge") else None
            assert plan_query(tiny_graph, kind, 0,
                              target_vertex=target).kind == kind


class TestMutationLog:
    def test_materialize_grows_graph(self, tiny_graph):
        log = GraphMutationLog(tiny_graph)
        log.insert_edge(0, 5)
        log.insert_edge(1, 4)
        grown = log.materialize()
        assert grown.num_edges == tiny_graph.num_edges + 2
        assert grown.num_vertices == tiny_graph.num_vertices
        assert (0, 5) in set(grown.edges())

    def test_empty_log_copies_base(self, tiny_graph):
        grown = GraphMutationLog(tiny_graph).materialize()
        assert list(grown.edges()) == list(tiny_graph.edges())

    def test_bounds_checked(self, tiny_graph):
        log = GraphMutationLog(tiny_graph)
        with pytest.raises(ConfigurationError):
            log.insert_edge(0, 100)
        with pytest.raises(ConfigurationError):
            log.delete_edge(-1, 0)
        with pytest.raises(ConfigurationError):
            log.remove_vertex(100)

    def test_delete_kills_base_edge(self, tiny_graph):
        u, v = int(tiny_graph.src[0]), int(tiny_graph.dst[0])
        log = GraphMutationLog(tiny_graph)
        log.delete_edge(u, v)
        shrunk = log.materialize()
        assert (u, v) not in set(shrunk.edges())
        assert shrunk.num_vertices == tiny_graph.num_vertices
        assert log.num_deletes == 1

    def test_delete_then_reinsert_round_trips(self, tiny_graph):
        u, v = int(tiny_graph.src[0]), int(tiny_graph.dst[0])
        log = GraphMutationLog(tiny_graph)
        log.delete_edge(u, v)
        log.insert_edge(u, v)
        graph = log.materialize()
        # The reinserted edge was created *after* the delete, so it lives.
        assert (u, v) in set(graph.edges())

    def test_insert_then_delete_dies(self, tiny_graph):
        log = GraphMutationLog(tiny_graph)
        log.insert_edge(0, 5)
        log.delete_edge(0, 5)
        assert (0, 5) not in set(log.materialize().edges())

    def test_add_vertex_grows_id_space(self, tiny_graph):
        log = GraphMutationLog(tiny_graph)
        new = log.add_vertex()
        assert new == tiny_graph.num_vertices
        log.insert_edge(new, 0)
        grown = log.materialize()
        assert grown.num_vertices == tiny_graph.num_vertices + 1
        assert (new, 0) in set(grown.edges())

    def test_remove_vertex_leaves_tombstone(self, tiny_graph):
        vertex = int(tiny_graph.src[0])
        log = GraphMutationLog(tiny_graph)
        log.remove_vertex(vertex)
        graph = log.materialize()
        # Id space is unchanged (ids are never recycled) but every
        # incident edge is gone.
        assert graph.num_vertices == tiny_graph.num_vertices
        assert graph.degree[vertex] == 0
        # Edges logged after the removal survive.
        log.insert_edge(vertex, 0)
        assert log.materialize().degree[vertex] > 0


class TestMixedWorkload:
    @pytest.fixture(scope="class")
    def setup(self):
        from repro.graph.generators import ldbc_like
        graph = ldbc_like(num_vertices=1000, avg_degree=10, seed=51)
        generator = WorkloadGenerator(graph, skew=0.5, seed=9)
        return graph, generator

    def test_mix_counts(self, setup):
        _graph, generator = setup
        bindings, inserts = mixed_read_write_bindings(
            generator, count=200, write_fraction=0.25)
        kinds = [b.kind for b in bindings]
        assert len(bindings) == 200
        assert kinds.count("insert_edge") == 50
        assert len(inserts) == 50

    def test_pure_reads(self, setup):
        _graph, generator = setup
        bindings, inserts = mixed_read_write_bindings(
            generator, count=50, write_fraction=0.0)
        assert all(b.kind == "one_hop" for b in bindings)
        assert inserts == []

    def test_invalid_fraction(self, setup):
        _graph, generator = setup
        with pytest.raises(ConfigurationError):
            mixed_read_write_bindings(generator, write_fraction=1.5)

    def test_simulates_end_to_end(self, setup):
        graph, generator = setup
        bindings, _ = mixed_read_write_bindings(generator, count=150,
                                                write_fraction=0.3)
        partition = HashVertexPartitioner().partition(graph, 4)
        result = simulate_workload(graph, partition, bindings, duration=0.3)
        assert result.completed_queries > 0

    def test_colocated_writes_cheaper(self, setup):
        """Edge inserts whose endpoints co-locate touch one partition —
        a clustering partitioner turns dual writes into single writes."""
        graph, generator = setup
        _bindings, inserts = mixed_read_write_bindings(
            generator, count=400, write_fraction=1.0)
        hashed = HashVertexPartitioner().partition(graph, 8)
        clustered = LdgPartitioner(seed=0).partition(graph, 8,
                                                     order="natural", seed=1)

        def single_partition_writes(partition):
            assignment = partition.assignment
            return sum(1 for u, v in inserts
                       if assignment[u] == assignment[v])

        assert single_partition_writes(clustered) > \
            single_partition_writes(hashed)


def _full_replay(base, ops, num_vertices):
    """From-scratch oracle: replay every op over the base graph, applying
    each delete as a full-length mask (the original, quadratic replay)."""
    from repro.graph import GraphBuilder

    base_m = base.num_edges
    inserts = [(i, u, v) for i, (kind, u, v) in enumerate(ops)
               if kind == "insert_edge"]
    src = np.concatenate([base.src, np.array([u for _, u, _ in inserts],
                                             dtype=np.int64)])
    dst = np.concatenate([base.dst, np.array([v for _, _, v in inserts],
                                             dtype=np.int64)])
    created = np.concatenate([np.full(base_m, -1, dtype=np.int64),
                              np.array([i for i, _, _ in inserts],
                                       dtype=np.int64)])
    alive = np.ones(src.size, dtype=bool)
    for index, (kind, u, v) in enumerate(ops):
        if kind == "delete_edge":
            alive &= ~((src == u) & (dst == v) & (created < index))
        elif kind == "remove_vertex":
            alive &= ~(((src == u) | (dst == u)) & (created < index))
    builder = GraphBuilder(num_vertices=num_vertices, allow_self_loops=True)
    if alive.any():
        builder.add_edges(np.column_stack([src[alive], dst[alive]]))
    return builder.build(name=f"{base.name}+{len(ops)}")


def _replay_against_oracle(base, script):
    """Apply *script* to a log, materialising at every ``"split"`` step
    and at the end; every graph must equal the full-replay oracle.

    Vertex arguments are taken modulo the current id space, so scripts
    stay valid as ``add_vertex`` grows it.
    """
    log = GraphMutationLog(base)
    ops = []
    for step in [*script, ("split",)]:
        kind = step[0]
        n = log.num_vertices
        if kind == "split":
            got = log.materialize()
            want = _full_replay(base, ops, n)
            assert got.num_vertices == want.num_vertices
            assert got.name == want.name
            assert np.array_equal(got.src, want.src)
            assert np.array_equal(got.dst, want.dst)
        elif kind == "add_vertex":
            ops.append((kind, log.add_vertex(), -1))
        elif kind == "remove_vertex":
            log.remove_vertex(step[1] % n)
            ops.append((kind, step[1] % n, -1))
        else:
            u, v = step[1] % n, step[2] % n
            getattr(log, kind)(u, v)
            ops.append((kind, u, v))
    assert log.num_inserts == sum(k == "insert_edge" for k, _, _ in ops)
    assert log.num_deletes == sum(k in ("delete_edge", "remove_vertex")
                                  for k, _, _ in ops)


_VERTEX = st.integers(min_value=0, max_value=7)
_STEP = st.one_of(
    st.tuples(st.just("insert_edge"), _VERTEX, _VERTEX),
    st.tuples(st.just("delete_edge"), _VERTEX, _VERTEX),
    st.tuples(st.just("remove_vertex"), _VERTEX),
    st.tuples(st.just("add_vertex")),
    st.tuples(st.just("split")),
)


@st.composite
def _multigraphs(draw):
    """Tiny multigraphs: few vertices, so duplicate edges and self-loops
    are common."""
    n = draw(st.integers(min_value=1, max_value=5))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=12))
    src = np.array([u for u, _ in pairs], dtype=np.int64)
    dst = np.array([v for _, v in pairs], dtype=np.int64)
    return Graph(n, src, dst, name="multi")


class TestIncrementalReplay:
    """``materialize`` replays only the ops logged since its last call;
    at every split point it must equal a from-scratch full replay."""

    @settings(max_examples=200, deadline=None)
    @given(base=_multigraphs(), script=st.lists(_STEP, max_size=40))
    def test_matches_full_replay(self, base, script):
        _replay_against_oracle(base, script)

    def test_delete_then_reinsert_in_one_batch(self):
        base = Graph(3, [0, 0, 1, 2], [1, 1, 1, 2], name="multi")
        _replay_against_oracle(base, [
            ("insert_edge", 0, 1), ("delete_edge", 0, 1),
            ("insert_edge", 0, 1), ("insert_edge", 0, 1), ("split",),
            ("delete_edge", 1, 1), ("insert_edge", 1, 1),
            ("delete_edge", 2, 2), ("split",), ("delete_edge", 0, 1)])

    def test_remove_vertex_added_in_same_batch(self):
        base = Graph(3, [0, 1, 2], [1, 2, 2], name="multi")
        _replay_against_oracle(base, [
            ("split",), ("add_vertex",), ("insert_edge", 3, 0),
            ("insert_edge", 1, 3), ("insert_edge", 3, 3),
            ("remove_vertex", 3), ("insert_edge", 3, 2), ("split",),
            ("add_vertex",), ("remove_vertex", 4), ("insert_edge", 4, 4)])

    def test_materialize_twice_without_new_ops(self, tiny_graph):
        log = GraphMutationLog(tiny_graph)
        log.delete_edge(0, 1)
        first, second = log.materialize(), log.materialize()
        assert list(first.edges()) == list(second.edges())
        assert first.name == second.name == "tiny+1"
