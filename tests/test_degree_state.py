"""Tests for `repro.partitioning.degree_state`.

The layer's contract is chunk-geometry invariance: pushing the same
stream through a table in *any* chunk layout produces the same
per-arrival answers — exact mode bit-identical to the whole-stream
reconstruction (`streaming_partial_degrees`), sketch mode never below
it.  That invariance is what makes file chunk size and shard sync
geometry irrelevant to partition digests (see ``docs/scaling.md``).
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.partitioning.degree_state import (
    DEFAULT_SKETCH_DEPTH,
    DEFAULT_SKETCH_WIDTH,
    CountMinSketch,
    ExactDegreeTable,
    SketchDegreeTable,
    make_degree_state,
    run_inclusive_ranks,
)
from repro.partitioning.kernels import streaming_partial_degrees
from repro.partitioning.vertex_cut.dbh import DbhPartitioner
from repro.partitioning.vertex_cut.greedy import GreedyVertexCutPartitioner
from repro.partitioning.vertex_cut.hdrf import HdrfPartitioner
from repro.rng import make_rng

NUM_VERTICES = 40

#: Chunk layouts the invariance tests replay the same stream through:
#: whole-stream, per-edge, and two unaligned mixes.
LAYOUTS = ("whole", "single", "sevens", "ragged")


def random_stream(m=400, n=NUM_VERTICES, seed=11):
    rng = make_rng(seed)
    src = rng.integers(0, n, m).astype(np.int64)
    dst = rng.integers(0, n, m).astype(np.int64)
    return src, dst


def chunk_bounds(m: int, layout: str):
    if layout == "whole":
        sizes = [m]
    elif layout == "single":
        sizes = [1] * m
    elif layout == "sevens":
        sizes = [7] * (m // 7) + ([m % 7] if m % 7 else [])
    else:  # ragged: growing chunks 1, 2, 3, ...
        sizes, remaining, step = [], m, 1
        while remaining:
            take = min(step, remaining)
            sizes.append(take)
            remaining -= take
            step += 1
    bounds, start = [], 0
    for size in sizes:
        bounds.append((start, start + size))
        start += size
    assert start == m
    return bounds


def push_through(table, src, dst, layout):
    """Feed the stream through ``push`` chunk by chunk; concatenated
    per-arrival answers."""
    d_src_parts, d_dst_parts = [], []
    for start, stop in chunk_bounds(int(src.size), layout):
        d_src, d_dst = table.push(src[start:stop], dst[start:stop])
        d_src_parts.append(d_src)
        d_dst_parts.append(d_dst)
    return np.concatenate(d_src_parts), np.concatenate(d_dst_parts)


class TestRunInclusiveRanks:
    def test_matches_scalar_tally(self):
        values = np.array([3, 1, 3, 3, 1, 0, 3])
        assert run_inclusive_ranks(values).tolist() == [1, 1, 2, 3, 2, 1, 4]

    def test_empty(self):
        assert run_inclusive_ranks(np.zeros(0, dtype=np.int64)).size == 0

    def test_all_equal(self):
        assert run_inclusive_ranks(np.zeros(5, dtype=np.int64)).tolist() == \
            [1, 2, 3, 4, 5]


class TestExactDegreeTable:
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_chunk_layout_matches_whole_stream(self, layout):
        src, dst = random_stream()
        expected = streaming_partial_degrees(src, dst)
        got = push_through(ExactDegreeTable(NUM_VERTICES), src, dst, layout)
        assert np.array_equal(got[0], expected[0]), layout
        assert np.array_equal(got[1], expected[1]), layout

    def test_self_loop_counts_twice(self):
        table = ExactDegreeTable(8)
        d_src, d_dst = table.push(np.array([3, 3]), np.array([3, 1]))
        assert d_src.tolist() == [2, 3]
        assert d_dst.tolist() == [2, 1]

    def test_degree_reads_accumulated_counters(self):
        src, dst = random_stream(m=100)
        table = ExactDegreeTable(NUM_VERTICES)
        table.push(src, dst)
        expected = (np.bincount(src, minlength=NUM_VERTICES)
                    + np.bincount(dst, minlength=NUM_VERTICES))
        assert np.array_equal(table.degree(np.arange(NUM_VERTICES)), expected)

    def test_empty_push(self):
        table = ExactDegreeTable(4)
        d_src, d_dst = table.push(np.zeros(0, dtype=np.int64),
                                  np.zeros(0, dtype=np.int64))
        assert d_src.size == 0 and d_dst.size == 0

    def test_nbytes_scales_with_vertices(self):
        assert ExactDegreeTable(1000).nbytes == 8 * 1000


class TestCountMinSketch:
    def test_never_under_counts(self):
        rng = make_rng(3)
        values = rng.integers(0, 200, 1000).astype(np.int64)
        sketch = CountMinSketch(width=64, depth=3, seed=1)  # forced collisions
        sketch.add(values)
        true_counts = np.bincount(values, minlength=200)
        keys = np.arange(200, dtype=np.int64)
        assert np.all(sketch.estimate(keys) >= true_counts[keys])

    def test_exact_when_wide(self):
        values = np.array([5, 9, 5, 5, 9, 2], dtype=np.int64)
        sketch = CountMinSketch(width=1 << 16, depth=4, seed=0)
        sketch.add(values)
        assert sketch.estimate(np.array([5, 9, 2, 7])).tolist() == [3, 2, 1, 0]

    def test_add_with_ranks_matches_scalar_add_estimate(self):
        rng = make_rng(7)
        values = rng.integers(0, 30, 300).astype(np.int64)
        batched = CountMinSketch(width=16, depth=2, seed=5)
        scalar = CountMinSketch(width=16, depth=2, seed=5)
        got = batched.add_with_ranks(values)
        for i, v in enumerate(values.tolist()):
            one = np.array([v], dtype=np.int64)
            scalar.add(one)
            assert got[i] == scalar.estimate(one)[0], i

    def test_deterministic_across_instances(self):
        values = make_rng(9).integers(0, 500, 200).astype(np.int64)
        a = CountMinSketch(seed=4)
        b = CountMinSketch(seed=4)
        a.add(values)
        b.add(values)
        assert np.array_equal(a.estimate(values), b.estimate(values))

    def test_invalid_geometry(self):
        with pytest.raises(ConfigurationError):
            CountMinSketch(width=0)
        with pytest.raises(ConfigurationError):
            CountMinSketch(depth=0)


class TestSketchDegreeTable:
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_chunk_layout_invariant(self, layout):
        src, dst = random_stream(seed=21)
        baseline = push_through(
            SketchDegreeTable(NUM_VERTICES, width=32, depth=2),
            src, dst, "whole")
        got = push_through(SketchDegreeTable(NUM_VERTICES, width=32, depth=2),
                           src, dst, layout)
        assert np.array_equal(got[0], baseline[0]), layout
        assert np.array_equal(got[1], baseline[1]), layout

    def test_never_below_exact(self):
        src, dst = random_stream(seed=5)
        exact = push_through(ExactDegreeTable(NUM_VERTICES), src, dst,
                             "sevens")
        sketch = push_through(SketchDegreeTable(NUM_VERTICES, width=8,
                                                depth=2),
                              src, dst, "sevens")
        assert np.all(sketch[0] >= exact[0])
        assert np.all(sketch[1] >= exact[1])

    def test_equals_exact_when_wide(self):
        src, dst = random_stream(seed=8)
        exact = push_through(ExactDegreeTable(NUM_VERTICES), src, dst,
                             "ragged")
        sketch = push_through(SketchDegreeTable(NUM_VERTICES), src, dst,
                              "ragged")
        assert np.array_equal(sketch[0], exact[0])
        assert np.array_equal(sketch[1], exact[1])

    def test_nbytes_independent_of_vertex_count(self):
        small = SketchDegreeTable(10, width=128, depth=3)
        large = SketchDegreeTable(10**9, width=128, depth=3)
        assert small.nbytes == large.nbytes == 8 * 128 * 3


class TestFactory:
    def test_builds_both_kinds(self):
        assert make_degree_state("exact", 10).kind == "exact"
        state = make_degree_state("sketch", 10, sketch_width=64,
                                  sketch_depth=2)
        assert state.kind == "sketch"
        assert state.nbytes == 8 * 64 * 2

    def test_defaults(self):
        state = make_degree_state("sketch", 10)
        assert state.sketch.width == DEFAULT_SKETCH_WIDTH
        assert state.sketch.depth == DEFAULT_SKETCH_DEPTH

    def test_unknown_state_rejected(self):
        with pytest.raises(ConfigurationError):
            make_degree_state("approximate", 10)

    @pytest.mark.parametrize("build,match", [
        (lambda: DbhPartitioner(state="bogus"), "bogus"),
        (lambda: DbhPartitioner(degrees="partial", state="bogus"), "bogus"),
        (lambda: HdrfPartitioner(state="approximate"), "approximate"),
        (lambda: GreedyVertexCutPartitioner(sketch_width=0), "sketch_width"),
        (lambda: HdrfPartitioner(state="sketch",
                                 sketch_depth=float("nan")), "sketch_depth"),
    ], ids=["dbh-exact", "dbh-partial", "hdrf", "greedy-width",
            "hdrf-depth"])
    def test_partitioners_reject_bad_state_at_construction(self, build,
                                                           match):
        """Exact-degree DBH never reads ``state``, and the sketch
        geometry was checked only when a sketch was built."""
        with pytest.raises(ConfigurationError, match=match):
            build()
