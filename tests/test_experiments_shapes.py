"""Integration tests: the reproduced experiments show the paper's shapes.

These read the reports of one ``quick``-scale run of every experiment
(the session ``quick_run`` fixture) and assert the qualitative claims of
the paper's evaluation (Section 6) on the machine-readable payloads.
They are the repository's acceptance suite: if one of these fails, the
reproduction has drifted.
"""

import numpy as np
import pytest

from repro.experiments import scale_profile

pytestmark = pytest.mark.shapes


@pytest.fixture(scope="module")
def reports(quick_run):
    """The reports of the session's quick run of every experiment."""
    return quick_run.result.reports


class TestTable3Shapes:
    def test_dataset_types_match_paper(self, reports):
        report = reports["table3"]
        types = {row["dataset"]: row["type"] for row in report.data["rows"]}
        assert types["twitter"] == "heavy-tailed"
        assert types["uk-web"] == "power-law"
        assert types["usa-road"] == "low-degree"
        assert types["ldbc-snb"] == "heavy-tailed"

    def test_road_low_avg_degree(self, reports):
        report = reports["table3"]
        road = next(r for r in report.data["rows"] if r["dataset"] == "usa-road")
        assert road["avg_degree"] < 4      # paper: 2.5
        assert road["max_degree"] < 16     # paper: 9


class TestTable4Shapes:
    def test_cut_ratio_ordering(self, reports):
        """Paper Table 4: MTS best, ECR worst (≈ 1-1/k) at every k, and
        FNL beats LDG except in the small-n / large-k corner where
        FENNEL's α = sqrt(k)·m/n^1.5 over-weights balance."""
        report = reports["table4"]
        for k, row in report.data["cut_ratios"].items():
            assert row["mts"] < min(row["fennel"], row["ldg"])
            assert row["ecr"] > max(row["fennel"], row["ldg"])
            assert row["ecr"] == pytest.approx(1 - 1 / k, abs=0.05)
            if k <= 16:
                assert row["fennel"] < row["ldg"]

    def test_cut_grows_with_k(self, reports):
        report = reports["table4"]
        ratios = report.data["cut_ratios"]
        ks = sorted(ratios)
        for algorithm in ("ecr", "ldg", "fennel", "mts"):
            series = [ratios[k][algorithm] for k in ks]
            assert series == sorted(series)


class TestFigure2Shapes:
    def test_no_universal_winner(self, reports):
        """Section 6.2.1: 'There is no single algorithm that provides the
        best replication factor in all cases.'"""
        report = reports["figure2"]
        data = report.data["replication"]
        winners = set()
        for dataset, by_k in data.items():
            for k, row in by_k.items():
                winners.add(min(row, key=row.get))
        assert len(winners) > 1

    def test_edge_cut_wins_on_road(self, reports):
        """LDG/FNL preserve low-degree locality on the road network."""
        report = reports["figure2"]
        for k, row in report.data["replication"]["usa-road"].items():
            streaming_vertex_cut = min(row["vcr"], row["grid"], row["dbh"])
            assert min(row["ldg"], row["fennel"]) < streaming_vertex_cut

    def test_hdrf_best_vertex_cut_on_power_law(self, reports):
        report = reports["figure2"]
        for k, row in report.data["replication"]["uk-web"].items():
            assert row["hdrf"] <= min(row["vcr"], row["grid"], row["dbh"]) + 0.01

    def test_degree_aware_competitive_on_twitter(self, reports):
        """HDRF/DBH rival the offline baseline on heavy-tailed graphs."""
        report = reports["figure2"]
        for k, row in report.data["replication"]["twitter"].items():
            assert min(row["hdrf"], row["dbh"]) <= row["mts"] * 1.15

    def test_replication_grows_with_k(self, reports):
        report = reports["figure2"]
        for dataset, by_k in report.data["replication"].items():
            ks = sorted(by_k)
            for algorithm in by_k[ks[0]]:
                series = [by_k[k][algorithm] for k in ks]
                assert series == sorted(series), (dataset, algorithm)

    def test_vcr_worst_everywhere(self, reports):
        """Topology-blind edge hashing replicates the most."""
        report = reports["figure2"]
        for dataset, by_k in report.data["replication"].items():
            for k, row in by_k.items():
                vertex_cut = {a: row[a] for a in ("vcr", "grid", "dbh", "hdrf")}
                assert max(vertex_cut, key=vertex_cut.get) == "vcr"


class TestFigure1Shapes:
    def test_pagerank_edge_cut_slope_lowest(self, reports):
        """Section 6.2.1: edge-cut incurs less network I/O than vertex-cut
        for the same replication factor under PageRank, with hybrid-cut
        between them (PowerLyra's differentiated engine brings it down to
        the edge-cut boundary for low-degree-dominated graphs)."""
        report = reports["figure1"]
        slopes = report.data["slopes"]["pagerank"]
        assert slopes["edge-cut"] < slopes["vertex-cut"]
        assert slopes["edge-cut"] <= slopes["hybrid-cut"] * 1.05
        assert slopes["hybrid-cut"] < slopes["vertex-cut"]

    def test_pagerank_dominates_io(self, reports):
        report = reports["figure1"]
        slopes = report.data["slopes"]
        assert slopes["pagerank"]["vertex-cut"] > slopes["sssp"]["vertex-cut"]

    def test_io_linear_in_rf(self, reports):
        """Within one cut model and workload, I/O correlates strongly
        with the replication factor."""
        report = reports["figure1"]
        for model, points in report.data["points"]["pagerank"].items():
            arr = np.asarray(points)
            if len(arr) < 3:
                continue
            correlation = np.corrcoef(arr[:, 0], arr[:, 1])[0, 1]
            assert correlation > 0.55, model


class TestFigure9Shapes:
    def test_recommendations_cover_paper_leaves(self, reports):
        report = reports["figure9"]
        recommended = {row[1] for row in report.data["rows"]}
        assert {"fennel", "hdrf", "hg", "ecr"} & recommended

    def test_offline_recommendations_consistent(self, reports):
        """The tree's offline picks are near the measured best streaming
        algorithm on at least two of the three graph classes."""
        report = reports["figure9"]
        offline = [row for row in report.data["rows"] if row[3] is not None]
        assert sum(1 for row in offline if row[3]) >= 2


class TestFigure4Shapes:
    def test_edge_cut_imbalanced_on_skewed_graphs(self, reports):
        """Section 6.2.1: edge-cut methods perform poorly in skewed graphs
        as all edges of high-degree vertices are grouped together."""
        report = reports["figure4"]
        for dataset in ("twitter", "uk-web"):
            dists = report.data["distributions"][dataset]
            edge_cut_spread = max(dists["ldg"].max_over_mean,
                                  dists["fennel"].max_over_mean)
            vertex_cut_spread = max(dists["hdrf"].max_over_mean,
                                    dists["dbh"].max_over_mean)
            assert edge_cut_spread > vertex_cut_spread

    def test_edge_cut_balanced_on_road(self, reports):
        """Fig. 4(a): uniform degrees let edge-cut methods balance the
        computation — on the road network their spread is as small as the
        best vertex-cut method's, unlike on the skewed graphs."""
        report = reports["figure4"]
        dists = report.data["distributions"]["usa-road"]
        best_vertex_cut = min(dists[a].max_over_mean
                              for a in ("vcr", "grid", "dbh", "hdrf"))
        assert dists["ldg"].max_over_mean < 1.3
        assert dists["fennel"].max_over_mean < 1.3
        assert dists["ldg"].max_over_mean <= best_vertex_cut * 1.15


class TestOnlineShapes:
    def test_figure5_io_correlates_with_cut(self, reports):
        report = reports["figure5"]
        assert report.data["correlation"] > 0.7

    def test_figure7_hotspots(self, reports):
        """Section 6.3.1: FNL/LDG suffer computational load imbalance."""
        report = reports["figure7"]
        dists = report.data["distributions"]
        assert dists["fennel"].max_over_mean > dists["ecr"].max_over_mean
        assert dists["ldg"].max_over_mean > dists["ecr"].max_over_mean
        assert dists["ecr"].max_over_mean < 1.4

    def test_figure8_workload_aware_wins(self, reports):
        """Fig. 8: weighted partitioning beats unweighted MTS in
        throughput and lowers the load RSD."""
        report = reports["figure8"]
        results = report.data["results"]
        thr_w, rsd_w = results["MTS-W"]
        thr_m, rsd_m = results["MTS"]
        assert thr_w > thr_m
        assert rsd_w < rsd_m

    def test_table5_tail_latency_penalty(self, reports):
        """Table 5: greedy SGP tail latency clearly exceeds hashing's
        under high load (paper: up to 3.5x for FNL)."""
        report = reports["table5"]
        latencies = report.data["latencies"]
        assert (latencies["fennel"]["high"].p99
                > 1.3 * latencies["ecr"]["high"].p99)
        assert latencies["mts"]["med"].mean <= latencies["ecr"]["med"].mean


class TestThroughputFigures:
    def test_figure6_mts_best_modest_gaps(self, reports):
        """Fig. 6: partitioning matters less online than offline — MTS
        leads 1-hop at the largest cluster, but nobody wins by 5x."""
        report = reports["figure6"]
        data = report.data["throughput"]
        ks = scale_profile("quick").online_partitions
        k = 16 if 16 in ks else max(ks)
        row = {a: data[("one_hop", "medium", k, a)]
               for a in ("ecr", "ldg", "fennel", "mts")}
        assert max(row, key=row.get) == "mts"
        assert max(row.values()) < 2.0 * min(row.values())

    def test_figure12_no_gain_beyond_16(self, reports):
        """Fig. 12: with a fixed client population, adding workers beyond
        16 stops paying (communication overhead dominates)."""
        report = reports["figure12"]
        data = report.data["throughput"]
        if 32 not in data or 16 not in data:
            pytest.skip("profile lacks the 16->32 step")
        for algorithm in ("ecr", "fennel"):
            assert data[32][algorithm] < 1.10 * data[16][algorithm]

    def test_figure14_no_skew_penalty_on_road(self, reports):
        """On the regular road network the greedy edge-cut methods keep
        their cut advantage without paying a hotspot penalty."""
        report = reports["figure14"]
        data = report.data["throughput"]
        assert data[("usa-road", "medium", "fennel")] >= \
            data[("usa-road", "medium", "ecr")]

    def test_figure15_spread_on_skewed_graphs(self, reports):
        report = reports["figure15"]
        for dataset in ("twitter", "uk-web"):
            dists = report.data["distributions"][dataset]
            assert dists["fennel"].max_over_mean > dists["ecr"].max_over_mean


class TestAblationShapes:
    def test_greedy_collapses_hdrf_does_not(self, reports):
        report = reports["ablation-stream-order"]
        results = report.data["results"]
        assert results["bfs"]["greedy"][1] > 2.0      # greedy unbalanced
        assert results["bfs"]["hdrf"][1] < 1.2        # HDRF balanced

    def test_appendix_b_savings(self, reports):
        report = reports["ablation-sender-side-aggregation"]
        results = report.data["results"]
        assert results["ecr"][2] == pytest.approx(1.0)   # 100% saving
        assert results["ldg"][2] == pytest.approx(1.0)
        assert results["vcr"][2] < 0.5                   # little saving

    def test_fennel_gamma_tradeoff(self, reports):
        """Larger gamma buys balance; the sweep must cover both regimes."""
        report = reports["ablation-fennel-gamma"]
        results = report.data["results"]
        assert results[3.0][1] <= results[1.25][1]       # better balance

    def test_hdrf_lambda_improves_balance(self, reports):
        report = reports["ablation-hdrf-lambda"]
        results = report.data["results"]
        assert results[10.0][1] <= results[0.5][1] + 1e-6

    def test_ginger_threshold_monotone_replication(self, reports):
        """Raising the cutoff groups more in-edges: replication factor
        moves toward the pure-grouping extreme."""
        report = reports["ablation-ginger-threshold"]
        results = report.data["results"]
        assert results[10][0] <= results[10**9][0]

    def test_restreaming_converges_toward_mts(self, reports):
        report = reports["ablation-restreaming"]
        results = report.data["results"]
        assert results[10] < results[1]
        assert results[10] >= report.data["mts_cut"] - 0.02

    def test_dynamic_updates_refinement_recovers(self, reports):
        report = reports["ablation-dynamic-updates"]
        results = report.data["results"]
        assert results["stale + hermes refine"] < results["stale LDG"]
        assert results["offline MTS"] <= results["stale LDG"]

    def test_straggler_inflates_tails(self, reports):
        report = reports["ablation-straggler"]
        for algorithm, (healthy, degraded) in report.data["results"].items():
            assert degraded > healthy, algorithm

    def test_partitioning_cost_streaming_vs_offline(self, reports):
        """Section 4.1.1: LDG/FENNEL ≈ 10x faster than the offline
        multilevel baseline, hashing far faster still."""
        report = reports["ablation-partitioning-cost"]
        results = report.data["results"]
        assert results["ecr"][0] < results["ldg"][0]
        assert results["ldg"][0] < 0.5 * results["mts"][0]
        assert results["fennel"][0] < 0.5 * results["mts"][0]


class TestSloAblationShapes:
    def test_policy_breach_differentiation(self, reports):
        """docs/slo.md: each policy variant breaches exactly the SLOs
        its failure mode predicts — the nominal anchor holds them all."""
        report = reports["slo-ablation"]
        results = report.data["results"]

        nominal = results["nominal"]
        assert nominal["breached"] == []
        assert nominal["pages"] == 0 and nominal["tickets"] == 0

        starved = results["starved rate"]
        assert "migration-backlog" in starved["breached"]
        assert "write-shed-rate" in starved["breached"]
        assert starved["pages"] >= 1

        no_migration = results["no migration"]
        assert "partition-drift" in no_migration["breached"]

        degraded = results["degradation on"]
        # The feedback hook trades backlog for shed writes.
        assert degraded["shed_writes"] > starved["shed_writes"]
        assert degraded["final_backlog"] < starved["final_backlog"]

    def test_alert_timelines_are_regressable(self, reports):
        from repro.experiments import ExperimentContext, slo_ablation
        first = reports["slo-ablation"].data["results"]
        second = slo_ablation(ExperimentContext(scale="quick")).data["results"]
        for label in first:
            assert first[label]["alerts"] == second[label]["alerts"]
            assert first[label]["observability_digest"] == \
                second[label]["observability_digest"]
