"""Reproductions of the paper's tables (3, 4 and 5)."""

from __future__ import annotations

from repro.experiments.datasets import DATASETS, ONLINE_DATASET, dataset_summary
from repro.experiments.report import ExperimentReport, Table
from repro.experiments.runner import (
    HIGH_LOAD_CLIENTS,
    MEDIUM_LOAD_CLIENTS,
    ExperimentContext,
    dataset_jobs,
    partition_jobs,
    requires,
    simulation_jobs,
)
from repro.metrics import edge_cut_ratio
from repro.partitioning import ONLINE_ALGORITHMS


@requires(lambda profile: dataset_jobs(*DATASETS))
def table3(ctx: ExperimentContext) -> ExperimentReport:
    """Table 3: characteristics of the graph datasets."""
    report = ExperimentReport(
        "table3", "Graph datasets used in experiments (scaled substitutes)",
    )
    table = report.add_table(Table(
        "Dataset characteristics",
        ["Dataset", "Edges", "Vertices", "AvgDeg", "MaxDeg", "Type"],
    ))
    rows = []
    for name in DATASETS:
        summary = dataset_summary(name, ctx.scale)
        rows.append(summary)
        table.add_row(summary["dataset"], summary["edges"],
                      summary["vertices"], summary["avg_degree"],
                      summary["max_degree"], summary["type"])
    report.data["rows"] = rows
    report.add_note(
        "Paper types: Twitter/LDBC heavy-tailed, UK2007-05 power-law, "
        "US-Road low-degree — matched by the generated substitutes."
    )
    return report


@requires(lambda profile: partition_jobs(
    [ONLINE_DATASET], ONLINE_ALGORITHMS, profile.online_partitions))
def table4(ctx: ExperimentContext,
           dataset: str = ONLINE_DATASET) -> ExperimentReport:
    """Table 4: edge-cut ratio on the LDBC SNB graph for 4–32 partitions."""
    graph = ctx.graph(dataset)
    report = ExperimentReport(
        "table4", f"Edge-cut ratio for {dataset} graph",
    )
    report.data["cut_ratios"] = report.add_grid(
        "Edge-cut ratio (lower is better)", "Partitions",
        ctx.profile.online_partitions, ONLINE_ALGORITHMS,
        lambda k, algorithm: edge_cut_ratio(
            graph, ctx.online_partition(dataset, algorithm, k)),
        digits=3)
    report.add_note("Expected shape: ECR ≈ 1 - 1/k; FNL between LDG and "
                    "MTS; MTS lowest (paper Table 4).")
    return report


@requires(lambda profile: simulation_jobs(
    [ONLINE_DATASET], ONLINE_ALGORITHMS, [16], ["one_hop"],
    [MEDIUM_LOAD_CLIENTS, HIGH_LOAD_CLIENTS]))
def table5(ctx: ExperimentContext, dataset: str = ONLINE_DATASET,
           num_workers: int = 16) -> ExperimentReport:
    """Table 5: mean and tail latency of the 1-hop workload, 16 workers."""
    report = ExperimentReport(
        "table5",
        f"Mean and 99th-percentile latency (ms), 1-hop on {dataset}, "
        f"{num_workers} workers",
    )
    table = report.add_table(Table(
        "Latency under medium (12 clients/worker) and high (24) load",
        ["Algorithm", "Mean (med)", "p99 (med)", "Mean (high)", "p99 (high)"],
    ))
    data = {}
    for algorithm in ONLINE_ALGORITHMS:
        row = {}
        for label, clients in (("med", MEDIUM_LOAD_CLIENTS),
                               ("high", HIGH_LOAD_CLIENTS)):
            result = ctx.simulation(
                dataset, algorithm, num_workers, "one_hop",
                clients_per_worker=clients,
            )
            row[label] = result.latency()
        data[algorithm] = row
        table.add_row(
            algorithm.upper(),
            round(row["med"].mean * 1e3, 1), round(row["med"].p99 * 1e3, 1),
            round(row["high"].mean * 1e3, 1), round(row["high"].p99 * 1e3, 1),
        )
    report.data["latencies"] = data
    report.add_note("Expected shape: MTS lowest mean; LDG/FNL tail latency "
                    "well above ECR under high load (paper: up to 3.5x for FNL).")
    return report
