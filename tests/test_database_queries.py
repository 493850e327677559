"""Tests for repro.database.queries: query plans."""

import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.database import (
    QueryPlanner,
    one_hop,
    plan_query,
    route_plan,
    shortest_path,
    two_hop,
)
from repro.errors import ConfigurationError
from repro.graph import Graph
from repro.graph.generators import path_graph, star_graph

_SETTINGS = settings(max_examples=60, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@st.composite
def multigraphs(draw):
    """Small multigraphs with self-loops and duplicate edges, plus a
    start vertex and a vertex -> worker map."""
    n = draw(st.integers(min_value=1, max_value=30))
    vertex = st.integers(min_value=0, max_value=n - 1)
    start = draw(vertex)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=80))
    # A fan around the start vertex, so the frontier caps bite.
    edges += [(start, w) for w in draw(st.lists(vertex, max_size=8))]
    edges += edges[:draw(st.integers(min_value=0, max_value=len(edges)))]
    edges += [(v, v) for v in draw(st.lists(vertex, max_size=4))]
    src = np.array([a for a, _ in edges], dtype=np.int64)
    dst = np.array([b for _, b in edges], dtype=np.int64)
    owner = np.array(draw(st.lists(st.integers(min_value=0, max_value=5),
                                   min_size=n, max_size=n)), dtype=np.int64)
    return Graph(n, src, dst), start, owner


def _neighbour_sets(graph):
    """The set definition of N(u): every edge makes its endpoints mutual
    neighbours, and a self-loop makes u its own neighbour."""
    sets = [set() for _ in range(graph.num_vertices)]
    for a, b in zip(graph.src.tolist(), graph.dst.tolist()):
        sets[a].add(b)
        sets[b].add(a)
    return sets


def _phases(plan):
    for phase in plan.phases:
        assert phase.dtype == np.int64
        assert np.all(np.diff(phase) > 0), "phase not sorted and unique"
    return [phase.tolist() for phase in plan.phases]


class TestOneHop:
    def test_reads_start_and_neighbors(self, tiny_graph):
        plan = one_hop(tiny_graph, 2)
        assert plan.kind == "one_hop"
        assert plan.phases[0].tolist() == [2]
        assert sorted(plan.phases[1].tolist()) == [0, 1, 3]
        assert plan.total_reads == 4

    def test_isolated_vertex_single_phase(self):
        g = Graph(3, np.array([0]), np.array([1]))
        plan = one_hop(g, 2)
        assert len(plan.phases) == 1
        assert plan.total_reads == 1

    def test_neighbors_deduplicated(self):
        g = Graph(2, np.array([0, 0, 0]), np.array([1, 1, 1]))
        plan = one_hop(g, 0)
        assert plan.phases[1].tolist() == [1]

    def test_out_of_range_rejected(self, tiny_graph):
        with pytest.raises(ConfigurationError):
            one_hop(tiny_graph, 99)


class TestTwoHop:
    def test_three_phases_on_path(self):
        g = path_graph(5)
        plan = two_hop(g, 2)
        assert plan.phases[0].tolist() == [2]
        assert sorted(plan.phases[1].tolist()) == [1, 3]
        assert sorted(plan.phases[2].tolist()) == [0, 4]

    def test_second_hop_excludes_first(self, tiny_graph):
        plan = two_hop(tiny_graph, 2)
        first = set(plan.phases[1].tolist())
        second = set(plan.phases[2].tolist()) if len(plan.phases) > 2 else set()
        assert not (first & second)
        assert 2 not in second

    def test_fanout_limit(self):
        g = star_graph(100)
        plan = two_hop(g, 0, fanout_limit=10)
        assert plan.phases[1].size == 10

    def test_superset_of_one_hop_reads(self, small_social):
        v = int(np.argmax(small_social.degree))
        assert (two_hop(small_social, v).total_reads
                >= one_hop(small_social, v).total_reads)


class TestShortestPath:
    def test_same_vertex(self, tiny_graph):
        plan = shortest_path(tiny_graph, 3, 3)
        assert plan.total_reads == 1

    def test_adjacent_vertices_quick(self):
        g = path_graph(10)
        plan = shortest_path(g, 0, 1)
        assert len(plan.phases) <= 2

    def test_expands_both_sides(self):
        g = path_graph(9)
        plan = shortest_path(g, 0, 8)
        starts = {int(p[0]) for p in plan.phases}
        assert 0 in starts and 8 in starts

    def test_max_depth_caps_phases(self):
        g = path_graph(200)
        plan = shortest_path(g, 0, 199, max_depth=4)
        assert len(plan.phases) <= 4

    def test_total_reads_bounded_by_graph(self, small_road):
        plan = shortest_path(small_road, 0, small_road.num_vertices - 1)
        assert plan.total_reads <= 2 * small_road.num_vertices


class TestPlanQuery:
    def test_dispatch(self, tiny_graph):
        assert plan_query(tiny_graph, "one_hop", 0).kind == "one_hop"
        assert plan_query(tiny_graph, "two_hop", 0).kind == "two_hop"
        assert plan_query(tiny_graph, "shortest_path", 0,
                          target_vertex=3).kind == "shortest_path"

    def test_shortest_path_requires_target(self, tiny_graph):
        with pytest.raises(ConfigurationError):
            plan_query(tiny_graph, "shortest_path", 0)

    def test_unknown_kind_rejected(self, tiny_graph):
        with pytest.raises(ConfigurationError):
            plan_query(tiny_graph, "three_hop", 0)


class TestQueryPlanner:
    def test_plans_equal_plan_query(self, small_social):
        planner = QueryPlanner(small_social)
        v = int(np.argmax(small_social.degree))
        for kind, target in (("one_hop", None), ("two_hop", None),
                             ("shortest_path", 7), ("insert_edge", 7),
                             ("remove_vertex", None)):
            got = planner.plan(kind, v, target_vertex=target)
            want = plan_query(small_social, kind, v, target_vertex=target,
                              fanout_limit=64)
            assert (got.kind, got.start_vertex) == (want.kind, v)
            assert [p.tolist() for p in got.phases] == \
                [p.tolist() for p in want.phases]

    def test_memoised(self, small_social):
        planner = QueryPlanner(small_social)
        plan = planner.plan("two_hop", 3)
        assert planner.plan("two_hop", 3) is plan
        assert planner.plan("one_hop", 3) is not plan


class TestFanoutLimitValidation:
    @pytest.mark.parametrize("bad", [0, -1, -3, 2.5, "8", True])
    def test_rejected_naming_the_value(self, bad):
        g = star_graph(10)
        with pytest.raises(ConfigurationError, match=re.escape(repr(bad))):
            two_hop(g, 0, fanout_limit=bad)
        with pytest.raises(ConfigurationError, match=re.escape(repr(bad))):
            QueryPlanner(g, fanout_limit=bad)

    @pytest.mark.parametrize("good", [None, 1, 64, np.int64(3)])
    def test_accepted_and_applied(self, good):
        g = star_graph(10)
        frontier = min(10, good or 10)
        assert two_hop(g, 0, fanout_limit=good).phases[1].size == frontier
        assert QueryPlanner(g, fanout_limit=good).plan(
            "two_hop", 0).phases[1].size == frontier


class TestPlanKernelOracle:
    """The plan kernels against their set definitions, independent of
    the implementation (which the frozen DES reference shares)."""

    @_SETTINGS
    @given(case=multigraphs())
    def test_one_hop_is_the_neighbour_set(self, case):
        graph, v, _owner = case
        neighbours = sorted(_neighbour_sets(graph)[v])
        expected = [[v]] + ([neighbours] if neighbours else [])
        assert _phases(one_hop(graph, v)) == expected

    @_SETTINGS
    @given(case=multigraphs(), fanout_limit=st.sampled_from([None, 1, 3]))
    def test_two_hop_is_the_set_difference(self, case, fanout_limit):
        graph, v, _owner = case
        sets = _neighbour_sets(graph)
        first = sorted(sets[v])[:fanout_limit]
        second = set().union(*(sets[u] for u in first)) - set(first) - {v}
        expected = [[v]]
        if first:
            expected.append(first)
        if second:
            expected.append(sorted(second))
        assert _phases(two_hop(graph, v, fanout_limit=fanout_limit)) == expected

    @_SETTINGS
    @given(case=multigraphs(), fanout_limit=st.sampled_from([None, 1, 3]))
    def test_route_plan_counts_owners(self, case, fanout_limit):
        graph, v, owner = case
        for plan in (one_hop(graph, v),
                     two_hop(graph, v, fanout_limit=fanout_limit)):
            routed = route_plan(plan, owner)
            assert routed.kind == plan.kind
            assert routed.coordinator == owner[v]
            assert type(routed.coordinator) is int
            for phase, requests in zip(plan.phases, routed.phases,
                                       strict=True):
                counts = Counter(owner[phase].tolist())
                assert requests.requests == tuple(sorted(counts.items()))
                assert all(type(w) is int and type(c) is int
                           for w, c in requests.requests)
