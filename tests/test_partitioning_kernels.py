"""Golden-digest equivalence and unit tests for the scoring-kernel layer.

The kernel port (``repro.partitioning.kernels``) is a pure performance
change: for every (algorithm, seed, stream order) pair the kernelized
partitioners must produce **bit-identical** assignments to the scalar
pre-kernel loops snapshotted in :mod:`repro.partitioning._reference`.
Two guards enforce that here:

* a digest matrix pinned in ``tests/data_golden_digests.json`` (generated
  from the pre-port implementations before the port landed);
* live array equality against the reference loops, so the guard holds
  even if both sides of the digest file were ever regenerated together.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.errors import ConfigurationError
from repro.graph import Graph
from repro.graph.generators import ldbc_like, twitter_like
from repro.graph.stream import VertexStream
from repro.partitioning import accepts_seed, make_partitioner
from repro.partitioning._reference import REFERENCE_FACTORIES
from repro.partitioning.base import argmax_with_ties, argmin_with_ties
from repro.partitioning.kernels import (
    FennelKernel,
    LdgKernel,
    ReplicaMasks,
    argmax_tie_least_loaded,
    iter_edge_chunks,
    iter_vertex_arrivals,
    pick_least_loaded,
    streaming_partial_degrees,
)

GOLDEN_PATH = Path(__file__).parent / "data_golden_digests.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))

K = 8
ORDERS = ("natural", "random", "bfs")
SEEDS = (1, 2)

#: (label suffix, registry name, constructor kwargs) — one row per digest
#: family; the label encodes non-default configs the way the digest keys do.
CONFIGS = (
    ("ldg", "ldg", {}),
    ("fennel", "fennel", {}),
    ("re-ldg-p2", "re-ldg", {"num_passes": 2}),
    ("re-fennel-p2", "re-fennel", {"num_passes": 2}),
    ("hdrf", "hdrf", {}),
    ("greedy", "greedy", {}),
    ("grid", "grid", {}),
    ("dbh", "dbh", {}),
    ("dbh-partial", "dbh", {"degrees": "partial"}),
)

#: Ginger (HG) goldens: (label, degree threshold).  ldbc250's largest
#: in-degree is 30, so at the default threshold of 100 phase 2 (hashing
#: the in-edges of high-degree vertices) never runs there; 10 makes it.
HG_CONFIGS = (("hg", 100), ("hg-t10", 10))
#: MTS goldens per k.  The coarsening floor is max(12k, 48), so on these
#: 250-300 vertex graphs k=32 skips coarsening altogether.  MTS ignores
#: the stream order, so its keys carry none.
MTS_KS = (8, 32)
MTS_LABELS = tuple(f"{label}-k{k}" for label in ("mts", "mts-w")
                   for k in MTS_KS)
GRAPH_NAMES = ("twitter300", "ldbc250")

#: HDRF and greedy beyond the k=8 matrix: (label, registry name, k,
#: kwargs).  k=3 fits in one byte of a replica mask, k=16 spans two
#: bytes and k=65 two 64-bit words.  λ=20 lets the balance term outweigh
#: any replica bonus on these small graphs; the 64×2 sketch overcounts.
CORE_CONFIGS = (
    *((f"{name}-k{k}", name, k, {})
      for name in ("hdrf", "greedy") for k in (3, 16, 65)),
    ("hdrf-l0.5", "hdrf", K, {"balance_weight": 0.5}),
    ("hdrf-l20", "hdrf", K, {"balance_weight": 20.0}),
    ("hdrf-sketch", "hdrf", K,
     {"state": "sketch", "sketch_width": 64, "sketch_depth": 2}),
    ("greedy-sketch", "greedy", K,
     {"state": "sketch", "sketch_width": 64, "sketch_depth": 2}),
)
#: The hand-built graph with self-loops and parallel edges, and the k
#: its HDRF and greedy goldens run at.
LOOPS_NAME = "loops10"
LOOPS_K = 3
LOOPS_LABELS = ("hdrf", "greedy")
#: Golden key of the traced HDRF run's JSONL on the loops graph.
LOOPS_TRACE_KEY = f"{LOOPS_NAME}/hdrf-trace/random/s1"


def _loops_graph() -> Graph:
    """Ten vertices, 24 edges: 13 self-loops on nine vertices (four of
    them repeated) and parallel edges, some in both directions."""
    pairs = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (3, 3), (3, 4),
             (4, 4), (5, 5), (5, 6), (6, 6), (7, 7), (0, 1), (2, 2),
             (2, 3), (8, 9), (9, 9), (9, 8), (1, 2), (4, 4), (6, 6),
             (6, 5), (3, 3), (0, 1)]
    src, dst = zip(*pairs)
    return Graph(10, np.array(src), np.array(dst), name=LOOPS_NAME)


@pytest.fixture(scope="module")
def golden_graphs():
    return {
        "twitter300": twitter_like(num_vertices=300, seed=11),
        "ldbc250": ldbc_like(num_vertices=250, avg_degree=6, seed=5),
        LOOPS_NAME: _loops_graph(),
    }


def _digest(*arrays: np.ndarray) -> str:
    data = b"".join(np.ascontiguousarray(a, dtype=np.int32).tobytes()
                    for a in arrays)
    return hashlib.sha256(data).hexdigest()[:16]


def _access_weights(graph: Graph) -> np.ndarray:
    """Seeded integer vertex weights, about a quarter of them zero, so
    MTS-W's weight-floor path runs."""
    rng = np.random.default_rng(17)
    return rng.integers(0, 4, size=graph.num_vertices).astype(np.float64)


def _construct(factory_kwargs, algorithm, seed):
    kwargs = dict(factory_kwargs)
    if accepts_seed(algorithm):
        kwargs["seed"] = 100 + seed
    return kwargs


class TestGoldenDigests:
    def test_matrix_is_complete(self):
        streamed = [label for label, _, _ in CONFIGS]
        streamed += [label for label, _ in HG_CONFIGS]
        expected = {f"{g}/{label}/{o}/s{s}"
                    for g in GRAPH_NAMES for label in streamed
                    for o in ORDERS for s in SEEDS}
        expected |= {f"{g}/{label}/s{s}"
                     for g in GRAPH_NAMES for label in MTS_LABELS
                     for s in SEEDS}
        expected |= {f"{g}/{label}/{o}/s{s}"
                     for g in GRAPH_NAMES for label, _, _, _ in CORE_CONFIGS
                     for o in ORDERS for s in SEEDS}
        expected |= {f"{LOOPS_NAME}/{label}/{o}/s{s}"
                     for label in LOOPS_LABELS for o in ORDERS
                     for s in SEEDS}
        expected.add(LOOPS_TRACE_KEY)
        assert set(GOLDEN) == expected

    @pytest.mark.parametrize("graph_name", ("twitter300", "ldbc250"))
    @pytest.mark.parametrize("label,algorithm,kwargs",
                             CONFIGS, ids=[c[0] for c in CONFIGS])
    def test_ported_partitioner_matches_golden_digest(
            self, golden_graphs, graph_name, label, algorithm, kwargs):
        """Kernelized output is bit-identical to the pre-port snapshot."""
        graph = golden_graphs[graph_name]
        for order in ORDERS:
            for seed in SEEDS:
                partitioner = make_partitioner(
                    algorithm, **_construct(kwargs, algorithm, seed))
                partition = partitioner.partition(graph, K,
                                                  order=order, seed=seed)
                key = f"{graph_name}/{label}/{order}/s{seed}"
                assert _digest(partition.assignment) == GOLDEN[key], key

    @pytest.mark.parametrize("graph_name", GRAPH_NAMES)
    @pytest.mark.parametrize("label,algorithm,k,kwargs", CORE_CONFIGS,
                             ids=[c[0] for c in CORE_CONFIGS])
    def test_vertex_cut_core_matches_golden_digest(
            self, golden_graphs, graph_name, label, algorithm, k, kwargs):
        """HDRF and greedy at one-byte, multi-byte and multi-word replica
        masks, at both λ extremes and on an overcounting sketch."""
        graph = golden_graphs[graph_name]
        for order in ORDERS:
            for seed in SEEDS:
                partitioner = make_partitioner(algorithm, seed=100 + seed,
                                               **kwargs)
                partition = partitioner.partition(graph, k, order=order,
                                                  seed=seed)
                key = f"{graph_name}/{label}/{order}/s{seed}"
                assert _digest(partition.assignment) == GOLDEN[key], key

    @pytest.mark.parametrize("algorithm", LOOPS_LABELS)
    def test_self_loops_and_parallel_edges_match_golden_digest(
            self, golden_graphs, algorithm):
        graph = golden_graphs[LOOPS_NAME]
        for order in ORDERS:
            for seed in SEEDS:
                partition = make_partitioner(
                    algorithm, seed=100 + seed).partition(
                        graph, LOOPS_K, order=order, seed=seed)
                key = f"{LOOPS_NAME}/{algorithm}/{order}/s{seed}"
                assert _digest(partition.assignment) == GOLDEN[key], key

    def test_traced_hdrf_decisions_match_golden_digest(self, golden_graphs):
        """Every decision span — scores, ties, state size — is pinned on
        the loops graph, where a self-loop adds one replica, not two."""
        with telemetry.recording(decision_sample_every=1) as tracer:
            make_partitioner("hdrf", seed=101).partition(
                golden_graphs[LOOPS_NAME], LOOPS_K, order="random", seed=1)
        jsonl = tracer.to_jsonl()
        decisions = [span for span in telemetry.read_jsonl(jsonl)
                     if span.name == "sgp.decision"]
        assert len(decisions) == golden_graphs[LOOPS_NAME].num_edges
        digest = hashlib.sha256(jsonl.encode("utf-8")).hexdigest()[:16]
        assert digest == GOLDEN[LOOPS_TRACE_KEY]

    @pytest.mark.parametrize("graph_name", GRAPH_NAMES)
    @pytest.mark.parametrize("label,threshold", HG_CONFIGS,
                             ids=[c[0] for c in HG_CONFIGS])
    def test_ginger_matches_golden_digest(self, golden_graphs, graph_name,
                                          label, threshold):
        """Ginger's edge assignment and masters are both pinned."""
        graph = golden_graphs[graph_name]
        for order in ORDERS:
            for seed in SEEDS:
                partitioner = make_partitioner(
                    "hg", degree_threshold=threshold, seed=100 + seed)
                partition = partitioner.partition(graph, K,
                                                  order=order, seed=seed)
                key = f"{graph_name}/{label}/{order}/s{seed}"
                assert _digest(partition.assignment,
                               partition.masters) == GOLDEN[key], key

    @pytest.mark.parametrize("graph_name", GRAPH_NAMES)
    @pytest.mark.parametrize("weighted", (False, True),
                             ids=("mts", "mts-w"))
    def test_multilevel_matches_golden_digest(self, golden_graphs,
                                              graph_name, weighted):
        graph = golden_graphs[graph_name]
        weights = _access_weights(graph) if weighted else None
        for k in MTS_KS:
            for seed in SEEDS:
                partition = make_partitioner("mts", seed=100 + seed).partition(
                    graph, k, seed=seed, vertex_weights=weights)
                label = "mts-w" if weighted else "mts"
                key = f"{graph_name}/{label}-k{k}/s{seed}"
                assert _digest(partition.assignment) == GOLDEN[key], key

    @pytest.mark.parametrize("label,algorithm,kwargs",
                             CONFIGS, ids=[c[0] for c in CONFIGS])
    def test_live_equivalence_against_reference_loops(
            self, golden_graphs, label, algorithm, kwargs):
        """Array-equal against the scalar loops, independent of the file;
        k=65 spans two 64-bit words of a vertex-cut replica mask."""
        graph = golden_graphs["ldbc250"]
        for order, seed, k in (("random", 1, K), ("bfs", 2, K),
                               ("random", 1, 65)):
            ctor = _construct(kwargs, algorithm, seed)
            ported = make_partitioner(algorithm, **ctor).partition(
                graph, k, order=order, seed=seed)
            reference = REFERENCE_FACTORIES[algorithm](**ctor).partition(
                graph, k, order=order, seed=seed)
            assert np.array_equal(ported.assignment, reference.assignment), \
                (label, order, seed, k)


class TestStreamHelpers:
    def test_iter_vertex_arrivals_fast_path_matches_stream(self, tiny_graph):
        for order in ("natural", "random", "bfs"):
            stream = VertexStream(tiny_graph, order=order, seed=3)
            expected = [(a.vertex, sorted(np.asarray(a.neighbors).tolist()))
                        for a in VertexStream(tiny_graph, order=order, seed=3)]
            got = [(v, sorted(n.tolist()))
                   for v, n in iter_vertex_arrivals(stream)]
            assert got == expected

    def test_iter_vertex_arrivals_generic_fallback(self):
        pairs = [(0, [1, 2]), (1, [0]), (2, np.array([0]))]
        got = [(v, n.tolist()) for v, n in iter_vertex_arrivals(iter(pairs))]
        assert got == [(0, [1, 2]), (1, [0]), (2, [0])]

    def test_iter_edge_chunks_preserves_order(self, tiny_graph):
        from repro.graph.stream import EdgeStream
        from repro.partitioning.base import edge_stream_arrays
        whole = edge_stream_arrays(EdgeStream(tiny_graph, order="random",
                                              seed=5))
        chunks = list(iter_edge_chunks(EdgeStream(tiny_graph, order="random",
                                                  seed=5), chunk_size=3))
        assert len(chunks) == 3          # 7 edges in chunks of 3
        for whole_arr, parts in zip(whole, zip(*chunks)):
            assert np.array_equal(np.concatenate(parts), whole_arr)

    def test_iter_edge_chunks_empty_stream(self):
        assert list(iter_edge_chunks(iter([]), chunk_size=4)) == []

    def test_iter_edge_chunks_exact_boundary(self):
        arrivals = [(i, i, i + 1) for i in range(6)]
        chunks = list(iter_edge_chunks(iter(arrivals), chunk_size=3))
        assert [ids.size for ids, _, _ in chunks] == [3, 3]  # no empty tail
        assert np.concatenate([ids for ids, _, _ in chunks]).tolist() == \
            list(range(6))

    def test_iter_edge_chunks_single_element(self):
        chunks = list(iter_edge_chunks(iter([(7, 1, 2)]), chunk_size=64))
        assert len(chunks) == 1
        ids, src, dst = chunks[0]
        assert (ids.tolist(), src.tolist(), dst.tolist()) == ([7], [1], [2])

    def test_iter_edge_chunks_delegates_to_file_fast_path(self):
        class FakeFileStream:
            def iter_chunks(self, chunk_size):
                yield (np.array([0]), np.array([1]), np.array([2]))
                yield (np.array([chunk_size]), np.array([3]), np.array([4]))

        chunks = list(iter_edge_chunks(FakeFileStream(), chunk_size=99))
        assert len(chunks) == 2
        assert chunks[1][0].tolist() == [99]  # chunk_size passed through

    def test_iter_edge_chunks_rejects_bad_chunk_size(self, tiny_graph):
        from repro.graph.stream import EdgeStream
        with pytest.raises(ValueError):
            list(iter_edge_chunks(EdgeStream(tiny_graph), chunk_size=0))
        with pytest.raises(ConfigurationError, match="chunk_size"):
            list(EdgeStream(tiny_graph).iter_chunks(0))

    def test_streaming_partial_degrees_match_scalar_counters(self):
        rng = np.random.default_rng(42)
        src = rng.integers(0, 12, 200)
        dst = rng.integers(0, 12, 200)
        d_src, d_dst = streaming_partial_degrees(src, dst)
        counters = np.zeros(12, dtype=np.int64)
        for i, (u, v) in enumerate(zip(src.tolist(), dst.tolist())):
            counters[u] += 1
            counters[v] += 1
            assert d_src[i] == counters[u], i
            assert d_dst[i] == counters[v], i

    def test_streaming_partial_degrees_self_loop_counts_twice(self):
        d_src, d_dst = streaming_partial_degrees(np.array([3, 3]),
                                                 np.array([3, 1]))
        assert d_src.tolist() == [2, 3]
        assert d_dst.tolist() == [2, 1]

    def test_streaming_partial_degrees_empty(self):
        d_src, d_dst = streaming_partial_degrees(np.zeros(0, dtype=np.int64),
                                                 np.zeros(0, dtype=np.int64))
        assert d_src.size == 0 and d_dst.size == 0


class TestTieBreakHelpers:
    def test_argmax_matches_base_helper(self):
        rng_a = np.random.default_rng(9)
        rng_b = np.random.default_rng(9)
        scores = np.array([1.0, 3.0, 3.0, 3.0])
        sizes = np.array([0, 2, 1, 1])
        for _ in range(20):
            assert (argmax_tie_least_loaded(scores, sizes, rng_a)
                    == argmax_with_ties(scores, tie_break=sizes, rng=rng_b))

    def test_argmax_unique_consumes_no_rng(self):
        rng = np.random.default_rng(1)
        before = rng.bit_generator.state["state"]["state"]
        argmax_tie_least_loaded(np.array([0.0, 2.0]), np.array([5, 5]), rng)
        assert rng.bit_generator.state["state"]["state"] == before

    def test_pick_least_loaded_matches_base_helper(self):
        """Same pick and same RNG stream as the base argmin over the
        candidates' loads, including a lone candidate (no draw)."""
        rng_a = np.random.default_rng(8)
        rng_b = np.random.default_rng(8)
        loads = [3, 1, 4, 1, 5, 1, 2, 6]
        for candidates in ([1, 3, 5], [0, 2, 6], [4], [1, 3, 6, 7],
                           list(range(8))):
            for _ in range(10):
                expected = candidates[argmin_with_ties(
                    np.array([loads[p] for p in candidates]), rng=rng_b)]
                assert pick_least_loaded(candidates, loads, rng_a) == expected
        assert pick_least_loaded([5, 3], loads, None) == 5


class TestReplicaMasks:
    @pytest.mark.parametrize("k", [1, 3, 8, 16, 64, 65, 130])
    def test_rows_round_trip_and_members_ascend(self, k):
        masks = ReplicaMasks(k, 5)
        assert masks.nbytes == 8 * ((k + 63) // 64) * 5
        rng = np.random.default_rng(k)
        chosen = {v: sorted(set(rng.integers(0, k, 4).tolist()))
                  for v in range(5)}
        for v, partitions in chosen.items():
            for p in partitions:
                masks.rows[v] = masks.rows[v] | masks.bits[p]
        for v, partitions in chosen.items():
            assert masks.members(masks.rows[v]) == partitions
        assert masks.members(masks.everyone) == list(range(k))

    def test_wide_rows_keep_their_words_apart(self):
        """Vertex 1's two words sit between vertex 0's and vertex 2's."""
        masks = ReplicaMasks(65, 3)
        masks.rows[1] = masks.bits[0] | masks.bits[64]
        assert [bool(word) for word in masks.words] == [
            False, False, True, True, False, False]
        assert masks.rows[0] == masks.rows[2] == 0


class TestEdgeCutKernels:
    def test_ldg_incremental_availability_matches_formula(self):
        kernel = LdgKernel(4, 10, capacity=2.5)
        neighbors = np.array([1, 2, 3])
        kernel.place(1, 0)
        kernel.place(2, 0)
        kernel.place(3, 2)
        counts = kernel.neighbor_counts(neighbors)[:4].astype(np.float64)
        expected = counts * (1.0 - kernel.sizes / 2.5)
        assert np.array_equal(kernel.score(neighbors), expected)

    def test_fennel_capacity_mask_is_minus_inf(self):
        kernel = FennelKernel(2, 6, alpha=0.5, gamma=1.5, capacity=2.0)
        kernel.place(0, 0)
        kernel.place(1, 0)           # partition 0 reaches capacity
        scores = kernel.score(np.array([0, 1]))
        assert scores[0] == -np.inf
        assert np.isfinite(scores[1])

    def test_unplaced_neighbors_fall_in_overflow_bucket(self):
        kernel = LdgKernel(3, 5, capacity=5.0)
        kernel.place(0, 1)
        counts = kernel.neighbor_counts(np.array([0, 2, 4]))
        assert counts[:3].tolist() == [0, 1, 0]
        assert counts[3] == 2        # the two unplaced neighbours

    def test_begin_pass_resets_state(self):
        kernel = FennelKernel(2, 4, alpha=1.0, gamma=1.5, capacity=2.0)
        kernel.place(0, 0)
        kernel.place(1, 0)
        kernel.begin_pass(alpha=2.0)
        assert kernel.sizes.tolist() == [0, 0]
        assert np.all(kernel.slots == 2)
        assert kernel.export_assignment().tolist() == [-1, -1, -1, -1]
        kernel.place(2, 1)
        assert kernel._penalty[1] == 2.0 * 1.5 * 1.0   # alpha re-annealed


_SETTINGS = settings(max_examples=15, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=2, max_value=30))
    m = draw(st.integers(min_value=1, max_value=90))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, m)
    dst = (src + rng.integers(1, n, m)) % n
    return Graph(n, src, dst)


@given(graph=graphs(), k=st.integers(min_value=1, max_value=6),
       order=st.sampled_from(["natural", "random", "bfs"]),
       seed=st.integers(min_value=0, max_value=1000))
@_SETTINGS
def test_property_fennel_respects_capacity(graph, k, order, seed):
    """FENNEL's hard cap: no partition exceeds ν·n/k across seeds/orders."""
    partitioner = make_partitioner("fennel", load_cap=1.1, seed=seed)
    partition = partitioner.partition(graph, k, order=order, seed=seed)
    assert partition.is_complete()
    capacity = max(1.0, 1.1 * graph.num_vertices / k)
    assert partition.sizes().max() <= int(np.ceil(capacity))


@given(graph=graphs(), k=st.integers(min_value=1, max_value=6),
       seed=st.integers(min_value=0, max_value=1000))
@_SETTINGS
def test_property_kernelized_partitioners_respect_bounds(graph, k, seed):
    """Every kernel-ported algorithm keeps assignments inside [0, k)."""
    for algorithm in ("ldg", "fennel", "re-ldg", "hdrf", "dbh", "greedy",
                      "grid"):
        kwargs = {"seed": seed} if accepts_seed(algorithm) else {}
        partition = make_partitioner(algorithm, **kwargs).partition(
            graph, k, order="random", seed=seed)
        assert partition.is_complete()
        assert partition.assignment.min() >= 0
        assert partition.assignment.max() < k
