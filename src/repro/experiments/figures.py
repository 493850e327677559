"""Reproductions of the paper's figures (1–9, 12–15).

Each function regenerates one figure's underlying data as text tables
(series instead of plots) and records the machine-readable payload in
``report.data`` for the test suite's shape checks.
"""

from __future__ import annotations

import numpy as np

from repro.database import record_workload, simulate_workload
from repro.experiments.datasets import OFFLINE_DATASETS, ONLINE_DATASET
from repro.experiments.report import ExperimentReport, Table
from repro.experiments.runner import (
    HIGH_LOAD_CLIENTS,
    MEDIUM_LOAD_CLIENTS,
    OFFLINE_WORKLOADS,
    PARTITION_SEED,
    ExperimentContext,
    analytics_jobs,
    partition_jobs,
    requires,
    simulation_jobs,
)
from repro.graph.analysis import classify_graph
from repro.metrics import edge_cut_ratio, relative_standard_deviation, summarize
from repro.partitioning import (
    CUT_MODELS,
    OFFLINE_ALGORITHMS,
    ONLINE_ALGORITHMS,
    recommend,
)
from repro.partitioning.workload_aware import workload_aware_partition

#: Fig. 9's tree selects among *streaming* algorithms; MTS is the offline
#: baseline and needs a pre-processing pass, so it is out of scope.
STREAMING_ALGORITHMS = tuple(a for a in OFFLINE_ALGORITHMS if a != "mts")
#: Fig. 12's fixed client population.
TOTAL_CLIENTS = 192
#: Figs. 6 and 14's two load scenarios: clients per worker by label.
LOADS = {"medium": MEDIUM_LOAD_CLIENTS, "high": HIGH_LOAD_CLIENTS}


def _mid_cluster(profile) -> int:
    """Fig. 9's cluster size: the largest offline k but one."""
    return max(profile.offline_partitions[:-1])


def _execution_ms_grid(report, ctx, dataset: str, workload: str,
                       title: str) -> dict:
    """Figs. 3 and 13's table: *workload*'s execution time (ms) on
    *dataset* per offline cluster size and algorithm."""
    return report.add_grid(
        title, "Partitions", ctx.profile.offline_partitions,
        OFFLINE_ALGORITHMS,
        lambda k, algorithm: ctx.analytics_run(
            dataset, algorithm, k, workload).execution_seconds * 1e3,
        digits=2)


def _read_distributions(report, ctx, dataset: str, num_workers: int,
                        title: str) -> dict:
    """Figs. 7 and 15's box lines: vertex reads per worker (thousands)
    of the medium-load 1-hop run, per online algorithm."""
    return report.add_distributions(
        title,
        {algorithm: summarize(ctx.simulation(
            dataset, algorithm, num_workers, "one_hop",
            clients_per_worker=MEDIUM_LOAD_CLIENTS).read_distribution() / 1e3)
         for algorithm in ONLINE_ALGORITHMS},
        ("minimum", "p25", "median", "p75", "p95", "p99", "maximum"), 1)


# ----------------------------------------------------------------------
# Offline analytics figures
# ----------------------------------------------------------------------
@requires(lambda profile: analytics_jobs(
    ["twitter"], OFFLINE_ALGORITHMS, profile.offline_partitions,
    OFFLINE_WORKLOADS))
def figure1(ctx: ExperimentContext,
            dataset: str = "twitter") -> ExperimentReport:
    """Fig. 1: replication factor vs total network I/O per cut model."""
    report = ExperimentReport(
        "figure1",
        f"Replication factor vs network I/O on {dataset} "
        "(PR / WCC / SSSP, all algorithms x partition counts)",
    )
    points: dict[str, dict[str, list[tuple[float, float]]]] = {}
    table = report.add_table(Table(
        "Per-configuration points",
        ["Workload", "CutModel", "Algorithm", "k", "ReplFactor", "Network MB"],
    ))
    for workload in OFFLINE_WORKLOADS:
        points[workload] = {}
        for algorithm in OFFLINE_ALGORITHMS:
            model = CUT_MODELS[algorithm]
            for k in ctx.profile.offline_partitions:
                run = ctx.analytics_run(dataset, algorithm, k, workload)
                rf = run.replication_factor
                mb = run.total_network_bytes / 1e6
                points[workload].setdefault(model, []).append((rf, mb))
                table.add_row(workload, model, algorithm.upper(), k,
                              round(rf, 2), round(mb, 2))
    models = sorted(set(CUT_MODELS.values()))
    slopes = report.add_table(Table(
        "Least-squares slope of network I/O vs replication factor "
        "(MB per replica unit, through origin)",
        ["Workload", *models],
    ))
    slope_data: dict[str, dict[str, float]] = {}
    for workload in OFFLINE_WORKLOADS:
        row = {}
        for model in models:
            pts = np.array(points[workload].get(model, [(0, 0)]))
            x, y = pts[:, 0], pts[:, 1]
            denominator = float((x * x).sum())
            row[model] = float((x * y).sum() / denominator) if denominator else 0.0
        slope_data[workload] = row
        slopes.add_row(workload, *[round(row[m], 2) for m in models])
    report.data["points"] = points
    report.data["slopes"] = slope_data
    report.add_note("Expected shape: network I/O grows linearly with RF; "
                    "for PageRank the edge-cut slope is clearly below "
                    "vertex-cut/hybrid (uni-directional communication); "
                    "PR total I/O >> WCC/SSSP.")
    return report


@requires(lambda profile: partition_jobs(
    OFFLINE_DATASETS, OFFLINE_ALGORITHMS, profile.offline_partitions))
def figure2(ctx: ExperimentContext) -> ExperimentReport:
    """Fig. 2: replication factor of every algorithm / dataset / k."""
    report = ExperimentReport(
        "figure2", "Replication factors over 8..128 partitions",
    )
    report.data["replication"] = {
        dataset: report.add_grid(
            f"Replication factor — {dataset}", "Partitions",
            ctx.profile.offline_partitions, OFFLINE_ALGORITHMS,
            lambda k, algorithm: ctx.placement(dataset, algorithm, k)
            .replication_factor(),
            digits=2)
        for dataset in OFFLINE_DATASETS}
    report.add_note("Expected shape: no universal winner — LDG/FNL lowest "
                    "on usa-road; HDRF lowest among vertex-cut on uk-web; "
                    "degree-aware methods (HDRF/DBH/HG) competitive with or "
                    "better than MTS on twitter.")
    return report


@requires(lambda profile: analytics_jobs(
    ["twitter"], OFFLINE_ALGORITHMS, profile.offline_partitions,
    OFFLINE_WORKLOADS))
def figure3(ctx: ExperimentContext,
            dataset: str = "twitter") -> ExperimentReport:
    """Fig. 3: execution time of PR / WCC / SSSP across cluster sizes."""
    report = ExperimentReport(
        "figure3", f"Offline workload execution time on {dataset} (ms)",
    )
    report.data["execution_ms"] = {
        workload: _execution_ms_grid(report, ctx, dataset, workload,
                                     f"Execution time (ms) — {workload}")
        for workload in OFFLINE_WORKLOADS}
    report.add_note("Expected shape: vertex-cut/hybrid fastest PageRank on "
                    "the skewed graph; algorithm gaps narrow for WCC/SSSP; "
                    "diminishing returns at high partition counts.")
    return report


@requires(lambda profile: analytics_jobs(
    OFFLINE_DATASETS, OFFLINE_ALGORITHMS, [max(profile.offline_partitions)],
    ["pagerank"]))
def figure4(ctx: ExperimentContext,
            num_partitions: int | None = None) -> ExperimentReport:
    """Fig. 4: per-machine computation time distribution during PageRank."""
    k = num_partitions or max(ctx.profile.offline_partitions)
    report = ExperimentReport(
        "figure4",
        f"Distribution of per-machine computation time, PageRank, {k} machines",
    )
    report.data["distributions"] = {
        dataset: report.add_distributions(
            f"Computation time (ms) — {dataset}",
            {algorithm: summarize(
                ctx.analytics_run(dataset, algorithm, k, "pagerank")
                .compute_seconds_per_machine() * 1e3)
             for algorithm in OFFLINE_ALGORITHMS},
            ("minimum", "p25", "median", "p75", "maximum"), 2)
        for dataset in OFFLINE_DATASETS}
    report.add_note("Expected shape: edge-cut methods (LDG/FNL) show a much "
                    "larger spread than vertex-cut on the skewed graphs "
                    "(twitter/uk-web); on usa-road edge-cut is balanced.")
    return report


@requires(lambda profile: analytics_jobs(
    OFFLINE_DATASETS, OFFLINE_ALGORITHMS, profile.offline_partitions,
    OFFLINE_WORKLOADS))
def figure13(ctx: ExperimentContext) -> ExperimentReport:
    """Fig. 13: the full offline grid (all datasets x workloads x k)."""
    report = ExperimentReport(
        "figure13", "Execution time (ms) of all offline workloads on all graphs",
    )
    data: dict[tuple, dict[str, float]] = {}
    for dataset in OFFLINE_DATASETS:
        for workload in OFFLINE_WORKLOADS:
            grid = _execution_ms_grid(
                report, ctx, dataset, workload,
                f"Execution time (ms) — {dataset} / {workload}")
            data.update({(dataset, workload, k): row for k, row in grid.items()})
    report.data["execution_ms"] = data
    report.add_note("Expected shape: LDG/FNL lowest execution times on "
                    "usa-road; vertex-cut/hybrid lowest on twitter/uk-web.")
    return report


# ----------------------------------------------------------------------
# Online query figures
# ----------------------------------------------------------------------
@requires(lambda profile: simulation_jobs(
    [ONLINE_DATASET], ONLINE_ALGORITHMS, profile.online_partitions,
    ["one_hop"], [MEDIUM_LOAD_CLIENTS]))
def figure5(ctx: ExperimentContext,
            dataset: str = ONLINE_DATASET) -> ExperimentReport:
    """Fig. 5: edge-cut ratio vs network I/O for the 1-hop workload."""
    graph = ctx.graph(dataset)
    report = ExperimentReport(
        "figure5", f"Edge-cut ratio vs network I/O, 1-hop on {dataset}",
    )
    table = report.add_table(Table(
        "Per-configuration points",
        ["Algorithm", "k", "EdgeCutRatio", "Network KB/query"],
    ))
    xs, ys = [], []
    for algorithm in ONLINE_ALGORITHMS:
        for k in ctx.profile.online_partitions:
            partition = ctx.online_partition(dataset, algorithm, k)
            ratio = edge_cut_ratio(graph, partition)
            result = ctx.simulation(
                dataset, algorithm, k, "one_hop",
                clients_per_worker=MEDIUM_LOAD_CLIENTS,
            )
            # Normalise to per-query I/O: runs complete different query
            # counts in the fixed duration, while the paper measures the
            # I/O of a fixed workload.
            kb_per_query = (result.network_bytes / 1e3
                            / max(result.completed_queries, 1))
            xs.append(ratio)
            ys.append(kb_per_query)
            table.add_row(algorithm.upper(), k, round(ratio, 3),
                          round(kb_per_query, 2))
    correlation = float(np.corrcoef(xs, ys)[0, 1]) if len(xs) > 2 else 1.0
    report.data["points"] = list(zip(xs, ys))
    report.data["correlation"] = correlation
    report.add_note(f"Pearson correlation of network I/O with edge-cut "
                    f"ratio: {correlation:.3f} (paper: linear relationship).")
    return report


@requires(lambda profile: simulation_jobs(
    [ONLINE_DATASET], ONLINE_ALGORITHMS, profile.online_partitions,
    ["one_hop", "two_hop"], [MEDIUM_LOAD_CLIENTS, HIGH_LOAD_CLIENTS]))
def figure6(ctx: ExperimentContext,
            dataset: str = ONLINE_DATASET) -> ExperimentReport:
    """Fig. 6: aggregate throughput, 1-hop & 2-hop, medium & high load."""
    report = ExperimentReport(
        "figure6", f"Aggregate throughput on {dataset} under medium/high load",
    )
    data: dict[tuple, float] = {}
    for kind in ("one_hop", "two_hop"):
        for label, clients in LOADS.items():
            grid = report.add_grid(
                f"Throughput (queries/s) — {kind}, {label} load", "Workers",
                ctx.profile.online_partitions, ONLINE_ALGORITHMS,
                lambda k, algorithm: ctx.simulation(
                    dataset, algorithm, k, kind,
                    clients_per_worker=clients).throughput)
            data.update({(kind, label, k, algorithm): throughput
                         for k, row in grid.items()
                         for algorithm, throughput in row.items()})
    report.data["throughput"] = data
    report.add_note("Expected shape: MTS best (paper: ~25% over hashing on "
                    "1-hop); partitioning's impact far smaller than for "
                    "offline analytics (no 5x gaps).")
    return report


@requires(lambda profile: simulation_jobs(
    [ONLINE_DATASET], ONLINE_ALGORITHMS, [16], ["one_hop"],
    [MEDIUM_LOAD_CLIENTS]))
def figure7(ctx: ExperimentContext, dataset: str = ONLINE_DATASET,
            num_workers: int = 16) -> ExperimentReport:
    """Fig. 7: per-worker vertex reads during the 1-hop workload."""
    report = ExperimentReport(
        "figure7",
        f"Vertex reads per worker, 1-hop on {dataset}, {num_workers} workers",
    )
    report.data["distributions"] = _read_distributions(
        report, ctx, dataset, num_workers, "Reads per worker (thousands)")
    report.add_note("Expected shape: LDG/FNL spread >> ECR spread — the "
                    "workload-skew hotspots of Section 6.3.1.")
    return report


@requires(lambda profile: simulation_jobs(
    [ONLINE_DATASET], ONLINE_ALGORITHMS, [16], ["one_hop"],
    [MEDIUM_LOAD_CLIENTS]))
def figure8(ctx: ExperimentContext, dataset: str = ONLINE_DATASET,
            num_workers: int = 16) -> ExperimentReport:
    """Fig. 8: workload-aware weighted partitioning (throughput + RSD)."""
    graph = ctx.graph(dataset)
    planner = ctx.planner(dataset)
    bindings = ctx.bindings(dataset, "one_hop")
    report = ExperimentReport(
        "figure8",
        f"Workload-aware partitioning, 1-hop on {dataset}, {num_workers} workers",
    )
    # Record the access log of the same workload (the paper's method).
    plans = [planner.plan(b.kind, b.start_vertex, target_vertex=b.target_vertex)
             for b in bindings]
    log = record_workload(graph, plans)
    weighted = workload_aware_partition(
        graph, num_workers, log.vertex_reads, seed=PARTITION_SEED,
    )

    table = report.add_table(Table(
        "Throughput and load-distribution RSD",
        ["Algorithm", "Throughput (q/s)", "Load RSD"],
    ))
    data = {}
    # Registry algorithms run through the cached simulation path; MTS-W's
    # partition is derived from the recorded access log above, so it has
    # no registry identity and runs the simulator directly.
    results = [(algorithm.upper(),
                ctx.simulation(dataset, algorithm, num_workers, "one_hop",
                               clients_per_worker=MEDIUM_LOAD_CLIENTS))
               for algorithm in ONLINE_ALGORITHMS]
    results.append(("MTS-W", simulate_workload(
        graph, weighted, bindings,
        clients_per_worker=MEDIUM_LOAD_CLIENTS,
        duration=ctx.profile.sim_duration,
        planner=planner,
    )))
    for label, result in results:
        rsd = relative_standard_deviation(result.read_distribution())
        data[label] = (result.throughput, rsd)
        table.add_row(label, round(result.throughput), round(rsd, 3))
    report.data["results"] = data
    report.add_note("Expected shape: MTS-W (weighted by recorded accesses) "
                    "beats unweighted MTS in throughput (paper: 13-35%) and "
                    "has the lowest load RSD.")
    return report


@requires(lambda profile: [
    job for k in profile.online_partitions
    for job in simulation_jobs([ONLINE_DATASET], ONLINE_ALGORITHMS, [k],
                               ["one_hop"], [max(1, TOTAL_CLIENTS // k)])])
def figure12(ctx: ExperimentContext, dataset: str = ONLINE_DATASET,
             total_clients: int = TOTAL_CLIENTS) -> ExperimentReport:
    """Fig. 12: fixed client population, growing cluster size."""
    report = ExperimentReport(
        "figure12",
        f"Aggregate throughput of {total_clients} concurrent clients, "
        f"1-hop on {dataset}",
    )
    report.data["throughput"] = report.add_grid(
        "Throughput (queries/s)", "Workers",
        ctx.profile.online_partitions, ONLINE_ALGORITHMS,
        lambda k, algorithm: ctx.simulation(
            dataset, algorithm, k, "one_hop",
            clients_per_worker=max(1, total_clients // k)).throughput)
    report.add_note("Expected shape: throughput stops improving (and "
                    "degrades) beyond ~16 workers — communication overhead "
                    "dominates (Section 5.2.1).")
    return report


@requires(lambda profile: simulation_jobs(
    OFFLINE_DATASETS, ONLINE_ALGORITHMS, [16], ["one_hop"],
    [MEDIUM_LOAD_CLIENTS, HIGH_LOAD_CLIENTS]))
def figure14(ctx: ExperimentContext,
             num_workers: int = 16) -> ExperimentReport:
    """Fig. 14: 1-hop throughput on the real-world-like graphs."""
    report = ExperimentReport(
        "figure14",
        f"1-hop throughput on real-world-like graphs, {num_workers} workers",
    )
    data: dict[tuple, float] = {}
    for dataset in OFFLINE_DATASETS:
        grid = report.add_grid(
            f"Throughput (queries/s) — {dataset}", "Load",
            LOADS, ONLINE_ALGORITHMS,
            lambda label, algorithm: ctx.simulation(
                dataset, algorithm, num_workers, "one_hop",
                clients_per_worker=LOADS[label]).throughput)
        data.update({(dataset, label, algorithm): throughput
                     for label, row in grid.items()
                     for algorithm, throughput in row.items()})
    report.data["throughput"] = data
    return report


@requires(lambda profile: simulation_jobs(
    OFFLINE_DATASETS, ONLINE_ALGORITHMS, [16], ["one_hop"],
    [MEDIUM_LOAD_CLIENTS]))
def figure15(ctx: ExperimentContext,
             num_workers: int = 16) -> ExperimentReport:
    """Fig. 15: per-worker read distributions on the real-world-like graphs."""
    report = ExperimentReport(
        "figure15",
        f"Vertex reads per worker, 1-hop, {num_workers} workers, all graphs",
    )
    report.data["distributions"] = {
        dataset: _read_distributions(
            report, ctx, dataset, num_workers,
            f"Reads per worker (thousands) — {dataset}")
        for dataset in OFFLINE_DATASETS}
    report.add_note("Expected shape: FNL/LDG suffer load imbalance "
                    "regardless of graph characteristics (Section 6.3.1).")
    return report


# ----------------------------------------------------------------------
# Figure 9: the decision tree, checked against measurements
# ----------------------------------------------------------------------
@requires(lambda profile: analytics_jobs(
    OFFLINE_DATASETS, STREAMING_ALGORITHMS, [_mid_cluster(profile)],
    ["pagerank"]))
def figure9(ctx: ExperimentContext) -> ExperimentReport:
    """Fig. 9: decision-tree recommendations vs measured winners."""
    report = ExperimentReport(
        "figure9", "Decision tree for picking an SGP algorithm",
    )
    table = report.add_table(Table(
        "Recommendation vs measurement",
        ["Scenario", "Recommended", "Measured best", "Consistent"],
    ))
    data = []
    k = _mid_cluster(ctx.profile)
    for dataset in OFFLINE_DATASETS:
        graph_type = classify_graph(ctx.graph(dataset))
        rec = recommend("analytics", graph_type=graph_type)
        timings = {
            algorithm: ctx.analytics_run(dataset, algorithm, k, "pagerank")
            .execution_seconds
            for algorithm in STREAMING_ALGORITHMS
        }
        best = min(timings, key=timings.get)
        # "Consistent" means the recommendation is within 25% of the best
        # measured time — the paper's tree picks a robust choice, not
        # necessarily the single fastest in every configuration.
        consistent = timings[rec.algorithm] <= 1.25 * timings[best]
        scenario = f"analytics / {dataset} ({graph_type})"
        table.add_row(scenario, rec.algorithm.upper(), best.upper(),
                      "yes" if consistent else "no")
        data.append((scenario, rec.algorithm, best, consistent))
    # Online branch: latency-critical and throughput-oriented entries.
    for kwargs, scenario in (
        (dict(tail_latency_critical=True), "online / tail-latency critical"),
        (dict(tail_latency_critical=False, load="medium",
              objective="throughput"), "online / medium load, throughput"),
    ):
        rec = recommend("online", **kwargs)
        table.add_row(scenario, rec.algorithm.upper(), "-", "-")
        data.append((scenario, rec.algorithm, None, None))
    report.data["rows"] = data
    report.add_note("Offline rows are validated against measured PageRank "
                    "execution times; online rows restate the paper's "
                    "guidance (validated by table5/figure6 shapes).")
    return report
