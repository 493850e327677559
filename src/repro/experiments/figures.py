"""Reproductions of the paper's figures (1–9, 12–15).

Each function regenerates one figure's underlying data as text tables
(series instead of plots) and records the machine-readable payload in
``report.data`` for the test suite's shape checks.
"""

from __future__ import annotations

import numpy as np

from repro.database import record_workload, simulate_workload
from repro.experiments.datasets import OFFLINE_DATASETS
from repro.experiments.report import ExperimentReport, Table
from repro.experiments.runner import PARTITION_SEED, ExperimentContext
from repro.graph.analysis import classify_graph
from repro.metrics import edge_cut_ratio, relative_standard_deviation, summarize
from repro.partitioning import (
    CUT_MODELS,
    OFFLINE_ALGORITHMS,
    ONLINE_ALGORITHMS,
    recommend,
)
from repro.partitioning.workload_aware import workload_aware_partition

OFFLINE_WORKLOADS = ("pagerank", "wcc", "sssp")
MEDIUM_LOAD_CLIENTS = 12
HIGH_LOAD_CLIENTS = 24


# ----------------------------------------------------------------------
# Offline analytics figures
# ----------------------------------------------------------------------
def figure1(ctx: ExperimentContext | None = None,
            dataset: str = "twitter") -> ExperimentReport:
    """Fig. 1: replication factor vs total network I/O per cut model."""
    ctx = ctx or ExperimentContext()
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
    slopes = report.add_table(Table(
        "Least-squares slope of network I/O vs replication factor "
        "(MB per replica unit, through origin)",
        ["Workload", *sorted(set(CUT_MODELS.values()))],
    ))
    slope_data: dict[str, dict[str, float]] = {}
    for workload in OFFLINE_WORKLOADS:
        row = {}
        for model in sorted(set(CUT_MODELS.values())):
            pts = np.array(points[workload].get(model, [(0, 0)]))
            x, y = pts[:, 0], pts[:, 1]
            denominator = float((x * x).sum())
            row[model] = float((x * y).sum() / denominator) if denominator else 0.0
        slope_data[workload] = row
        slopes.add_row(workload,
                       *[round(row[m], 2) for m in sorted(set(CUT_MODELS.values()))])
    report.data["points"] = points
    report.data["slopes"] = slope_data
    report.add_note("Expected shape: network I/O grows linearly with RF; "
                    "for PageRank the edge-cut slope is clearly below "
                    "vertex-cut/hybrid (uni-directional communication); "
                    "PR total I/O >> WCC/SSSP.")
    return report


def figure2(ctx: ExperimentContext | None = None) -> ExperimentReport:
    """Fig. 2: replication factor of every algorithm / dataset / k."""
    ctx = ctx or ExperimentContext()
    report = ExperimentReport(
        "figure2", "Replication factors over 8..128 partitions",
    )
    data: dict[str, dict[int, dict[str, float]]] = {}
    for dataset in OFFLINE_DATASETS:
        table = report.add_table(Table(
            f"Replication factor — {dataset}",
            ["Partitions", *[a.upper() for a in OFFLINE_ALGORITHMS]],
        ))
        data[dataset] = {}
        for k in ctx.profile.offline_partitions:
            row = {}
            for algorithm in OFFLINE_ALGORITHMS:
                row[algorithm] = ctx.placement(dataset, algorithm, k) \
                    .replication_factor()
            data[dataset][k] = row
            table.add_row(k, *[round(row[a], 2) for a in OFFLINE_ALGORITHMS])
    report.data["replication"] = data
    report.add_note("Expected shape: no universal winner — LDG/FNL lowest "
                    "on usa-road; HDRF lowest among vertex-cut on uk-web; "
                    "degree-aware methods (HDRF/DBH/HG) competitive with or "
                    "better than MTS on twitter.")
    return report


def figure3(ctx: ExperimentContext | None = None,
            dataset: str = "twitter") -> ExperimentReport:
    """Fig. 3: execution time of PR / WCC / SSSP across cluster sizes."""
    ctx = ctx or ExperimentContext()
    report = ExperimentReport(
        "figure3", f"Offline workload execution time on {dataset} (ms)",
    )
    data: dict[str, dict[int, dict[str, float]]] = {}
    for workload in OFFLINE_WORKLOADS:
        table = report.add_table(Table(
            f"Execution time (ms) — {workload}",
            ["Partitions", *[a.upper() for a in OFFLINE_ALGORITHMS]],
        ))
        data[workload] = {}
        for k in ctx.profile.offline_partitions:
            row = {}
            for algorithm in OFFLINE_ALGORITHMS:
                run = ctx.analytics_run(dataset, algorithm, k, workload)
                row[algorithm] = run.execution_seconds * 1e3
            data[workload][k] = row
            table.add_row(k, *[round(row[a], 2) for a in OFFLINE_ALGORITHMS])
    report.data["execution_ms"] = data
    report.add_note("Expected shape: vertex-cut/hybrid fastest PageRank on "
                    "the skewed graph; algorithm gaps narrow for WCC/SSSP; "
                    "diminishing returns at high partition counts.")
    return report


def figure4(ctx: ExperimentContext | None = None,
            num_partitions: int | None = None) -> ExperimentReport:
    """Fig. 4: per-machine computation time distribution during PageRank."""
    ctx = ctx or ExperimentContext()
    k = num_partitions or max(ctx.profile.offline_partitions)
    report = ExperimentReport(
        "figure4",
        f"Distribution of per-machine computation time, PageRank, {k} machines",
    )
    data: dict[str, dict[str, dict]] = {}
    for dataset in OFFLINE_DATASETS:
        table = report.add_table(Table(
            f"Computation time (ms) — {dataset}",
            ["Algorithm", "Min", "p25", "Median", "p75", "Max", "Max/Mean"],
        ))
        data[dataset] = {}
        for algorithm in OFFLINE_ALGORITHMS:
            run = ctx.analytics_run(dataset, algorithm, k, "pagerank")
            dist = summarize(run.compute_seconds_per_machine() * 1e3)
            data[dataset][algorithm] = dist
            table.add_row(algorithm.upper(), round(dist.minimum, 2),
                          round(dist.p25, 2), round(dist.median, 2),
                          round(dist.p75, 2), round(dist.maximum, 2),
                          round(dist.max_over_mean, 2))
    report.data["distributions"] = data
    report.add_note("Expected shape: edge-cut methods (LDG/FNL) show a much "
                    "larger spread than vertex-cut on the skewed graphs "
                    "(twitter/uk-web); on usa-road edge-cut is balanced.")
    return report


def figure13(ctx: ExperimentContext | None = None) -> ExperimentReport:
    """Fig. 13: the full offline grid (all datasets x workloads x k)."""
    ctx = ctx or ExperimentContext()
    report = ExperimentReport(
        "figure13", "Execution time (ms) of all offline workloads on all graphs",
    )
    data: dict[tuple, dict[str, float]] = {}
    for dataset in OFFLINE_DATASETS:
        for workload in OFFLINE_WORKLOADS:
            table = report.add_table(Table(
                f"Execution time (ms) — {dataset} / {workload}",
                ["Partitions", *[a.upper() for a in OFFLINE_ALGORITHMS]],
            ))
            for k in ctx.profile.offline_partitions:
                row = {}
                for algorithm in OFFLINE_ALGORITHMS:
                    run = ctx.analytics_run(dataset, algorithm, k, workload)
                    row[algorithm] = run.execution_seconds * 1e3
                data[(dataset, workload, k)] = row
                table.add_row(k, *[round(row[a], 2) for a in OFFLINE_ALGORITHMS])
    report.data["execution_ms"] = data
    report.add_note("Expected shape: LDG/FNL lowest execution times on "
                    "usa-road; vertex-cut/hybrid lowest on twitter/uk-web.")
    return report


# ----------------------------------------------------------------------
# Online query figures
# ----------------------------------------------------------------------
def figure5(ctx: ExperimentContext | None = None,
            dataset: str = "ldbc-snb") -> ExperimentReport:
    """Fig. 5: edge-cut ratio vs network I/O for the 1-hop workload."""
    ctx = ctx or ExperimentContext()
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


def figure6(ctx: ExperimentContext | None = None,
            dataset: str = "ldbc-snb") -> ExperimentReport:
    """Fig. 6: aggregate throughput, 1-hop & 2-hop, medium & high load."""
    ctx = ctx or ExperimentContext()
    report = ExperimentReport(
        "figure6", f"Aggregate throughput on {dataset} under medium/high load",
    )
    data: dict[tuple, float] = {}
    for kind in ("one_hop", "two_hop"):
        for label, clients in (("medium", MEDIUM_LOAD_CLIENTS),
                               ("high", HIGH_LOAD_CLIENTS)):
            table = report.add_table(Table(
                f"Throughput (queries/s) — {kind}, {label} load",
                ["Workers", *[a.upper() for a in ONLINE_ALGORITHMS]],
            ))
            for k in ctx.profile.online_partitions:
                row = {}
                for algorithm in ONLINE_ALGORITHMS:
                    result = ctx.simulation(
                        dataset, algorithm, k, kind,
                        clients_per_worker=clients,
                    )
                    row[algorithm] = result.throughput
                    data[(kind, label, k, algorithm)] = result.throughput
                table.add_row(k, *[round(row[a]) for a in ONLINE_ALGORITHMS])
    report.data["throughput"] = data
    report.add_note("Expected shape: MTS best (paper: ~25% over hashing on "
                    "1-hop); partitioning's impact far smaller than for "
                    "offline analytics (no 5x gaps).")
    return report


def figure7(ctx: ExperimentContext | None = None, dataset: str = "ldbc-snb",
            num_workers: int = 16) -> ExperimentReport:
    """Fig. 7: per-worker vertex reads during the 1-hop workload."""
    ctx = ctx or ExperimentContext()
    report = ExperimentReport(
        "figure7",
        f"Vertex reads per worker, 1-hop on {dataset}, {num_workers} workers",
    )
    table = report.add_table(Table(
        "Reads per worker (thousands)",
        ["Algorithm", "Min", "p25", "Median", "p75", "p95", "p99", "Max",
         "Max/Mean"],
    ))
    data = {}
    for algorithm in ONLINE_ALGORITHMS:
        result = ctx.simulation(
            dataset, algorithm, num_workers, "one_hop",
            clients_per_worker=MEDIUM_LOAD_CLIENTS,
        )
        dist = summarize(result.read_distribution() / 1e3)
        data[algorithm] = dist
        table.add_row(algorithm.upper(), round(dist.minimum, 1),
                      round(dist.p25, 1), round(dist.median, 1),
                      round(dist.p75, 1), round(dist.p95, 1),
                      round(dist.p99, 1), round(dist.maximum, 1),
                      round(dist.max_over_mean, 2))
    report.data["distributions"] = data
    report.add_note("Expected shape: LDG/FNL spread >> ECR spread — the "
                    "workload-skew hotspots of Section 6.3.1.")
    return report


def figure8(ctx: ExperimentContext | None = None, dataset: str = "ldbc-snb",
            num_workers: int = 16) -> ExperimentReport:
    """Fig. 8: workload-aware weighted partitioning (throughput + RSD)."""
    ctx = ctx or ExperimentContext()
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


def figure12(ctx: ExperimentContext | None = None, dataset: str = "ldbc-snb",
             total_clients: int = 192) -> ExperimentReport:
    """Fig. 12: fixed client population, growing cluster size."""
    ctx = ctx or ExperimentContext()
    report = ExperimentReport(
        "figure12",
        f"Aggregate throughput of {total_clients} concurrent clients, "
        f"1-hop on {dataset}",
    )
    table = report.add_table(Table(
        "Throughput (queries/s)",
        ["Workers", *[a.upper() for a in ONLINE_ALGORITHMS]],
    ))
    data: dict[int, dict[str, float]] = {}
    for k in ctx.profile.online_partitions:
        row = {}
        for algorithm in ONLINE_ALGORITHMS:
            result = ctx.simulation(
                dataset, algorithm, k, "one_hop",
                clients_per_worker=max(1, total_clients // k),
            )
            row[algorithm] = result.throughput
        data[k] = row
        table.add_row(k, *[round(row[a]) for a in ONLINE_ALGORITHMS])
    report.data["throughput"] = data
    report.add_note("Expected shape: throughput stops improving (and "
                    "degrades) beyond ~16 workers — communication overhead "
                    "dominates (Section 5.2.1).")
    return report


def figure14(ctx: ExperimentContext | None = None,
             num_workers: int = 16) -> ExperimentReport:
    """Fig. 14: 1-hop throughput on the real-world-like graphs."""
    ctx = ctx or ExperimentContext()
    report = ExperimentReport(
        "figure14",
        f"1-hop throughput on real-world-like graphs, {num_workers} workers",
    )
    data: dict[tuple, float] = {}
    for dataset in OFFLINE_DATASETS:
        table = report.add_table(Table(
            f"Throughput (queries/s) — {dataset}",
            ["Load", *[a.upper() for a in ONLINE_ALGORITHMS]],
        ))
        for label, clients in (("medium", MEDIUM_LOAD_CLIENTS),
                               ("high", HIGH_LOAD_CLIENTS)):
            row = {}
            for algorithm in ONLINE_ALGORITHMS:
                result = ctx.simulation(
                    dataset, algorithm, num_workers, "one_hop",
                    clients_per_worker=clients,
                )
                row[algorithm] = result.throughput
                data[(dataset, label, algorithm)] = result.throughput
            table.add_row(label, *[round(row[a]) for a in ONLINE_ALGORITHMS])
    report.data["throughput"] = data
    return report


def figure15(ctx: ExperimentContext | None = None,
             num_workers: int = 16) -> ExperimentReport:
    """Fig. 15: per-worker read distributions on the real-world-like graphs."""
    ctx = ctx or ExperimentContext()
    report = ExperimentReport(
        "figure15",
        f"Vertex reads per worker, 1-hop, {num_workers} workers, all graphs",
    )
    data: dict[str, dict[str, object]] = {}
    for dataset in OFFLINE_DATASETS:
        table = report.add_table(Table(
            f"Reads per worker (thousands) — {dataset}",
            ["Algorithm", "Min", "p25", "Median", "p75", "p95", "p99",
             "Max", "Max/Mean"],
        ))
        data[dataset] = {}
        for algorithm in ONLINE_ALGORITHMS:
            result = ctx.simulation(
                dataset, algorithm, num_workers, "one_hop",
                clients_per_worker=MEDIUM_LOAD_CLIENTS,
            )
            dist = summarize(result.read_distribution() / 1e3)
            data[dataset][algorithm] = dist
            table.add_row(algorithm.upper(), round(dist.minimum, 1),
                          round(dist.p25, 1), round(dist.median, 1),
                          round(dist.p75, 1), round(dist.p95, 1),
                          round(dist.p99, 1), round(dist.maximum, 1),
                          round(dist.max_over_mean, 2))
    report.data["distributions"] = data
    report.add_note("Expected shape: FNL/LDG suffer load imbalance "
                    "regardless of graph characteristics (Section 6.3.1).")
    return report


# ----------------------------------------------------------------------
# Figure 9: the decision tree, checked against measurements
# ----------------------------------------------------------------------
def figure9(ctx: ExperimentContext | None = None) -> ExperimentReport:
    """Fig. 9: decision-tree recommendations vs measured winners."""
    ctx = ctx or ExperimentContext()
    report = ExperimentReport(
        "figure9", "Decision tree for picking an SGP algorithm",
    )
    table = report.add_table(Table(
        "Recommendation vs measurement",
        ["Scenario", "Recommended", "Measured best", "Consistent"],
    ))
    data = []
    k = max(ctx.profile.offline_partitions[:-1])  # a mid/large cluster size
    # The tree selects among *streaming* algorithms; MTS is the offline
    # baseline and needs a pre-processing pass, so it is out of scope.
    streaming = [a for a in OFFLINE_ALGORITHMS if a != "mts"]
    for dataset in OFFLINE_DATASETS:
        graph_type = classify_graph(ctx.graph(dataset))
        rec = recommend("analytics", graph_type=graph_type)
        timings = {
            algorithm: ctx.analytics_run(dataset, algorithm, k, "pagerank")
            .execution_seconds
            for algorithm in streaming
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
