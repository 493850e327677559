"""Tests for repro.partitioning.base: result types and helpers."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, PartitioningError
from repro.graph import EdgeStream, Graph
from repro.graph.generators import path_graph
from repro.partitioning import (
    FennelPartitioner,
    HeterogeneousFennelPartitioner,
    HeterogeneousLdgPartitioner,
    HybridHashPartitioner,
    IncrementalEdgeCutPartitioner,
    IogpPartitioner,
    LdgPartitioner,
    LeopardPartitioner,
    RestreamingFennelPartitioner,
    RestreamingLdgPartitioner,
    WeightedLdgPartitioner,
    hermes_refine,
    taper_refine,
    workload_aware_partition,
)
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
from repro.partitioning.heterogeneous import normalize_shares
from repro.rng import make_rng


class TestCheckNumPartitions:
    def test_valid(self):
        assert check_num_partitions(4) == 4
        assert check_num_partitions(np.int64(3)) == 3

    @pytest.mark.parametrize("bad", [0, -1, 1.5, "4", None, True])
    def test_invalid(self, bad):
        with pytest.raises(ConfigurationError):
            check_num_partitions(bad)


_PATH = path_graph(8)
_HALVES = VertexPartition(2, [0] * 4 + [1] * 4)

#: Every bound check on a float parameter: (parameter, call with value).
_BOUND_CHECKS = {
    "ldg": ("balance_slack", lambda v: LdgPartitioner(balance_slack=v)),
    "re-ldg": ("balance_slack",
               lambda v: RestreamingLdgPartitioner(balance_slack=v)),
    "re-fennel": ("load_cap",
                  lambda v: RestreamingFennelPartitioner(load_cap=v)),
    "fennel": ("load_cap", lambda v: FennelPartitioner(load_cap=v)),
    "fennel-alpha": ("alpha", lambda v: FennelPartitioner(alpha=v)),
    "re-fennel-alpha_growth": ("alpha_growth", lambda v:
                               RestreamingFennelPartitioner(alpha_growth=v)),
    "leopard": ("balance_slack",
                lambda v: LeopardPartitioner(balance_slack=v)),
    "iogp": ("balance_slack", lambda v: IogpPartitioner(balance_slack=v)),
    "hcr": ("degree_threshold",
            lambda v: HybridHashPartitioner(degree_threshold=v)),
    "heterogeneous-ldg": ("balance_slack", lambda v:
                          HeterogeneousLdgPartitioner([1, 1],
                                                      balance_slack=v)),
    "heterogeneous-fennel": ("load_cap", lambda v:
                             HeterogeneousFennelPartitioner([1, 1],
                                                            load_cap=v)),
    "weighted-ldg": ("balance_slack", lambda v:
                     WeightedLdgPartitioner(np.ones(8), balance_slack=v)),
    "incremental": ("balance_slack", lambda v:
                    IncrementalEdgeCutPartitioner(_HALVES, balance_slack=v)),
    "taper_refine": ("balance_slack", lambda v: taper_refine(
        _PATH, _HALVES, np.ones(_PATH.num_edges), balance_slack=v)),
    "hermes_refine": ("balance_slack",
                      lambda v: hermes_refine(_PATH, _HALVES,
                                              balance_slack=v)),
}


@pytest.mark.parametrize("site", sorted(_BOUND_CHECKS))
def test_bound_checks_reject_nan_and_inf(site):
    """NaN fails every comparison, so a bare ``value < bound`` check
    lets it through; each check names the parameter and the value, and
    the bound itself stays valid."""
    parameter, call = _BOUND_CHECKS[site]
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigurationError,
                           match=f"{parameter}.*{bad}"):
            call(bad)
    call(1.0)


#: Every per-entry check on a vector parameter: (entry name in the
#: message, call with a vector whose entry 1 is the value).
_ENTRY_CHECKS = {
    "heterogeneous-ldg": ("capacity share", lambda v:
                          HeterogeneousLdgPartitioner([1.0, v, 1.0])),
    "heterogeneous-fennel": ("capacity share", lambda v:
                             HeterogeneousFennelPartitioner([1.0, v, 1.0])),
    "normalize_shares": ("capacity share",
                         lambda v: normalize_shares([1.0, v, 1.0], 3)),
    "weighted-ldg": ("vertex weight",
                     lambda v: WeightedLdgPartitioner([1.0, v, 1.0])),
    "workload_aware": ("access count", lambda v: workload_aware_partition(
        _PATH, 2, [1.0, v] + [1.0] * 6)),
}


@pytest.mark.parametrize("site", sorted(_ENTRY_CHECKS))
def test_entry_checks_name_the_first_bad_entry(site):
    """NaN passes a bare ``(arr < 0).any()`` check: NaN shares or weights
    crashed inside numpy (a zero-size reduction), or would finish with a
    wrong assignment once NaN scores reach the tie-break scan."""
    entry, call = _ENTRY_CHECKS[site]
    for bad in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ConfigurationError, match=f"{entry} 1 .*{bad}"):
            call(bad)


def test_fennel_alpha_and_growth_bounds():
    """An explicit α may be 0 but not negative; the per-pass growth must
    be positive.  A NaN α used to reach the kernel and break the ν cap:
    on ldbc_like(400) at k=4 every vertex but three landed in partition
    0."""
    with pytest.raises(ConfigurationError, match="alpha.*-0.5"):
        FennelPartitioner(alpha=-0.5)
    FennelPartitioner(alpha=0.0)
    for bad in (0.0, -1.0):
        with pytest.raises(ConfigurationError, match=f"alpha_growth.*{bad}"):
            RestreamingFennelPartitioner(alpha_growth=bad)
    with pytest.raises(ConfigurationError, match="alpha.*nan"):
        RestreamingFennelPartitioner(alpha=float("nan"), num_passes=2)


def test_fennel_gamma_rejects_nan_and_inf():
    for bad in (float("nan"), float("inf"), 1.0):
        with pytest.raises(ConfigurationError, match=f"gamma.*{bad}"):
            FennelPartitioner(gamma=bad)


class TestVertexPartition:
    def test_sizes(self):
        p = VertexPartition(3, [0, 1, 1, 2, 2, 2])
        assert p.sizes().tolist() == [1, 2, 3]

    def test_of(self):
        p = VertexPartition(2, [0, 1, UNASSIGNED])
        assert p.of(1) == 1
        with pytest.raises(PartitioningError):
            p.of(2)

    def test_completeness(self):
        assert VertexPartition(2, [0, 1]).is_complete()
        assert not VertexPartition(2, [0, UNASSIGNED]).is_complete()

    def test_sizes_ignore_unassigned(self):
        p = VertexPartition(2, [0, UNASSIGNED, 1])
        assert p.sizes().tolist() == [1, 1]

    def test_out_of_range_rejected(self):
        with pytest.raises(PartitioningError):
            VertexPartition(2, [0, 5])

    def test_cut_model(self):
        assert VertexPartition(2, [0, 1]).cut_model == "edge-cut"


class TestEdgePartition:
    def test_sizes(self):
        p = EdgePartition(2, [0, 0, 1])
        assert p.sizes().tolist() == [2, 1]

    def test_of(self):
        p = EdgePartition(2, [1, UNASSIGNED])
        assert p.of(0) == 1
        with pytest.raises(PartitioningError):
            p.of(1)

    def test_masters_stored(self):
        p = EdgePartition(2, [0, 1], masters=[1, 0, 1])
        assert p.masters.tolist() == [1, 0, 1]

    def test_masters_out_of_range_rejected(self):
        """Regression: masters used to skip the range check assignments get."""
        with pytest.raises(PartitioningError):
            EdgePartition(2, [0, 1], masters=[0, 7, -3])

    def test_masters_unassigned_sentinel_allowed(self):
        p = EdgePartition(2, [0, 1], masters=[0, UNASSIGNED, 1])
        assert p.masters.tolist() == [0, UNASSIGNED, 1]

    def test_out_of_range_rejected(self):
        with pytest.raises(PartitioningError):
            EdgePartition(2, [0, 2])

    def test_cut_model(self):
        assert EdgePartition(2, [0]).cut_model == "vertex-cut"


class TestTieBreaking:
    def test_argmin_first_without_rng(self):
        assert argmin_with_ties(np.array([1, 0, 0])) == 1

    def test_argmin_random_among_ties(self):
        rng = make_rng(0)
        picks = {argmin_with_ties(np.array([0, 0, 5]), rng) for _ in range(50)}
        assert picks == {0, 1}

    def test_argmax_prefers_lower_tiebreak(self):
        values = np.array([3, 3, 1])
        loads = np.array([10, 2, 0])
        assert argmax_with_ties(values, tie_break=loads) == 1

    def test_argmax_unique_max(self):
        assert argmax_with_ties(np.array([1, 9, 3])) == 1

    def test_argmax_random_among_remaining_ties(self):
        rng = make_rng(1)
        values = np.array([5, 5, 5])
        loads = np.array([1, 1, 7])
        picks = {argmax_with_ties(values, tie_break=loads, rng=rng)
                 for _ in range(50)}
        assert picks == {0, 1}


class TestStreamHelpers:
    def test_iter_edge_arrivals_fast_path(self, tiny_graph):
        stream = EdgeStream(tiny_graph, "random", seed=2)
        fast = list(iter_edge_arrivals(stream))
        slow = [(a.edge_id, a.src, a.dst) for a in stream]
        assert fast == slow

    def test_iter_edge_arrivals_generic_iterable(self):
        arrivals = [(0, 1, 2), (1, 2, 3)]
        assert list(iter_edge_arrivals(arrivals)) == arrivals

    def test_edge_stream_arrays_fast_path(self, tiny_graph):
        stream = EdgeStream(tiny_graph, "random", seed=3)
        ids, src, dst = edge_stream_arrays(stream)
        assert np.array_equal(tiny_graph.src[ids], src)
        assert np.array_equal(tiny_graph.dst[ids], dst)

    def test_edge_stream_arrays_generic(self):
        ids, src, dst = edge_stream_arrays([(5, 0, 1), (2, 1, 0)])
        assert ids.tolist() == [5, 2]
        assert src.tolist() == [0, 1]

    @pytest.mark.parametrize("stream", [
        [], iter([]), EdgeStream(Graph(3, [], []), "random", seed=1)])
    def test_edge_stream_arrays_empty(self, stream):
        arrays = edge_stream_arrays(stream)
        assert [(a.dtype, a.size) for a in arrays] == [(np.int64, 0)] * 3
