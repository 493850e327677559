"""Ablation studies for the design choices DESIGN.md calls out.

These go beyond the paper's figures: they isolate the individual design
knobs of the studied algorithms (stream order sensitivity, FENNEL's γ,
HDRF's λ, Ginger's degree threshold, restreaming depth) that the paper
discusses qualitatively in Sections 4 and 6.
"""

from __future__ import annotations

import numpy as np

from repro.analytics import Placement
from repro.experiments.report import ExperimentReport, Table
from repro.experiments.runner import PARTITION_SEED, STREAM_ORDER, ExperimentContext
from repro.metrics import edge_cut_ratio, partition_balance, replication_factor
from repro.partitioning import (
    FennelPartitioner,
    GingerPartitioner,
    GreedyVertexCutPartitioner,
    HdrfPartitioner,
    RestreamingLdgPartitioner,
)


def ablation_stream_order(ctx: ExperimentContext | None = None,
                          dataset: str = "twitter",
                          num_partitions: int = 16) -> ExperimentReport:
    """Stream-order sensitivity: greedy vertex-cut vs HDRF.

    Section 4.2.2: PowerGraph's greedy formulation "is sensitive to stream
    orders and might result in a single partition in case of breadth-first
    traversal order. HDRF avoids this problem" via its λ balance term.
    """
    ctx = ctx or ExperimentContext()
    graph = ctx.graph(dataset)
    report = ExperimentReport(
        "ablation-stream-order",
        f"Stream order sensitivity on {dataset}, k={num_partitions}",
    )
    table = report.add_table(Table(
        "Replication factor / balance by stream order",
        ["Order", "Greedy RF", "Greedy Balance", "HDRF RF", "HDRF Balance"],
    ))
    data = {}
    for order in ("random", "bfs", "dfs"):
        row = {}
        for label, partitioner in (
            ("greedy", GreedyVertexCutPartitioner(seed=PARTITION_SEED)),
            ("hdrf", HdrfPartitioner(seed=PARTITION_SEED)),
        ):
            partition = partitioner.partition(graph, num_partitions,
                                              order=order, seed=PARTITION_SEED)
            row[label] = (replication_factor(graph, partition),
                          partition_balance(graph, partition))
        data[order] = row
        table.add_row(order, round(row["greedy"][0], 2),
                      round(row["greedy"][1], 2), round(row["hdrf"][0], 2),
                      round(row["hdrf"][1], 2))
    report.data["results"] = data
    report.add_note("Expected: greedy's balance degrades under BFS/DFS "
                    "order while HDRF stays balanced (lambda > 1).")
    return report


def ablation_fennel_gamma(ctx: ExperimentContext | None = None,
                          dataset: str = "twitter",
                          num_partitions: int = 16) -> ExperimentReport:
    """FENNEL γ sweep: cut quality vs balance trade-off (Eq. 5)."""
    ctx = ctx or ExperimentContext()
    graph = ctx.graph(dataset)
    report = ExperimentReport(
        "ablation-fennel-gamma",
        f"FENNEL gamma sweep on {dataset}, k={num_partitions}",
    )
    table = report.add_table(Table(
        "Edge-cut ratio and balance vs gamma",
        ["Gamma", "EdgeCutRatio", "Balance"],
    ))
    data = {}
    for gamma in (1.25, 1.5, 2.0, 3.0):
        partition = FennelPartitioner(gamma=gamma, seed=PARTITION_SEED) \
            .partition(graph, num_partitions, order="random",
                       seed=PARTITION_SEED)
        data[gamma] = (edge_cut_ratio(graph, partition),
                       partition_balance(graph, partition))
        table.add_row(gamma, round(data[gamma][0], 3), round(data[gamma][1], 3))
    report.data["results"] = data
    return report


def ablation_hdrf_lambda(ctx: ExperimentContext | None = None,
                         dataset: str = "twitter",
                         num_partitions: int = 16) -> ExperimentReport:
    """HDRF λ sweep: replication vs balance (Eq. 7)."""
    ctx = ctx or ExperimentContext()
    graph = ctx.graph(dataset)
    report = ExperimentReport(
        "ablation-hdrf-lambda",
        f"HDRF lambda sweep on {dataset}, k={num_partitions}",
    )
    table = report.add_table(Table(
        "Replication factor and balance vs lambda",
        ["Lambda", "ReplFactor", "Balance"],
    ))
    data = {}
    for lam in (0.5, 1.0, 1.1, 2.0, 10.0):
        partition = HdrfPartitioner(balance_weight=lam, seed=PARTITION_SEED) \
            .partition(graph, num_partitions, order="bfs", seed=PARTITION_SEED)
        data[lam] = (replication_factor(graph, partition),
                     partition_balance(graph, partition))
        table.add_row(lam, round(data[lam][0], 2), round(data[lam][1], 3))
    report.data["results"] = data
    report.add_note("Expected: larger lambda improves balance on "
                    "BFS-ordered streams at the cost of replication.")
    return report


def ablation_ginger_threshold(ctx: ExperimentContext | None = None,
                              dataset: str = "twitter",
                              num_partitions: int = 16) -> ExperimentReport:
    """Ginger degree-threshold sweep (the hybrid-cut cutoff)."""
    ctx = ctx or ExperimentContext()
    graph = ctx.graph(dataset)
    report = ExperimentReport(
        "ablation-ginger-threshold",
        f"Ginger high-degree threshold sweep on {dataset}, k={num_partitions}",
    )
    table = report.add_table(Table(
        "Replication factor and balance vs threshold",
        ["Threshold", "ReplFactor", "Balance"],
    ))
    data = {}
    for threshold in (10, 50, 100, 500, 10**9):
        partition = GingerPartitioner(degree_threshold=threshold,
                                      seed=PARTITION_SEED) \
            .partition(graph, num_partitions, order="random",
                       seed=PARTITION_SEED)
        data[threshold] = (replication_factor(graph, partition),
                           partition_balance(graph, partition))
        table.add_row(threshold, round(data[threshold][0], 2),
                      round(data[threshold][1], 3))
    report.data["results"] = data
    report.add_note("threshold=1e9 disables the vertex-cut phase entirely "
                    "(pure FENNEL-like edge grouping).")
    return report


def ablation_restreaming(ctx: ExperimentContext | None = None,
                         dataset: str = "usa-road",
                         num_partitions: int = 16) -> ExperimentReport:
    """re-LDG pass-count sweep: approaching offline (MTS) quality."""
    ctx = ctx or ExperimentContext()
    graph = ctx.graph(dataset)
    report = ExperimentReport(
        "ablation-restreaming",
        f"re-LDG restreaming passes on {dataset}, k={num_partitions}",
    )
    table = report.add_table(Table(
        "Edge-cut ratio vs number of passes",
        ["Passes", "EdgeCutRatio"],
    ))
    data = {}
    for passes in (1, 2, 3, 5, 10):
        partition = RestreamingLdgPartitioner(num_passes=passes,
                                              seed=PARTITION_SEED) \
            .partition(graph, num_partitions, order="random",
                       seed=PARTITION_SEED)
        data[passes] = edge_cut_ratio(graph, partition)
        table.add_row(passes, round(data[passes], 3))
    mts = ctx.partition(dataset, "mts", num_partitions)
    mts_cut = edge_cut_ratio(graph, mts)
    report.data["results"] = data
    report.data["mts_cut"] = mts_cut
    report.add_note(f"MTS (offline multilevel) cut ratio: {mts_cut:.3f} — "
                    "restreaming should close most of the gap from the "
                    "single-pass result.")
    return report


def ablation_dynamic_updates(ctx: ExperimentContext | None = None,
                             dataset: str = "ldbc-snb",
                             num_partitions: int = 16,
                             growth_fraction: float = 0.2) -> ExperimentReport:
    """Dynamic graphs: how a partitioning ages and how refinement helps.

    Section 2 motivates Hermes/Leopard with exactly this scenario: the
    graph grows after the initial (bulk-load) partitioning.  We hold back
    ``growth_fraction`` of the edges, partition the remainder with LDG,
    then add the held-back edges and compare:

    * the *stale* partitioning on the grown graph,
    * stale + Hermes-style refinement,
    * re-streaming the grown graph from scratch (re-LDG quality bound),
    * the offline MTS bound.
    """
    from repro.partitioning import LdgPartitioner, hermes_refine
    from repro.rng import make_rng

    ctx = ctx or ExperimentContext()
    graph = ctx.graph(dataset)
    rng = make_rng(PARTITION_SEED)
    keep = rng.random(graph.num_edges) >= growth_fraction
    base_graph = graph.subgraph_edges(np.flatnonzero(keep),
                                      name=f"{dataset}-base")

    stale = LdgPartitioner(seed=PARTITION_SEED).partition(
        base_graph, num_partitions, order=STREAM_ORDER, seed=PARTITION_SEED)
    refreshed = hermes_refine(graph, stale, seed=PARTITION_SEED)
    restreamed = LdgPartitioner(seed=PARTITION_SEED).partition(
        graph, num_partitions, order=STREAM_ORDER, seed=PARTITION_SEED)
    offline = ctx.partition(dataset, "mts", num_partitions)

    report = ExperimentReport(
        "ablation-dynamic-updates",
        f"Partition aging under {growth_fraction:.0%} edge growth "
        f"({dataset}, k={num_partitions})",
    )
    table = report.add_table(Table(
        "Edge-cut ratio on the grown graph",
        ["Strategy", "EdgeCutRatio"],
    ))
    data = {}
    for label, partition in (("stale LDG", stale),
                             ("stale + hermes refine", refreshed),
                             ("re-streamed LDG", restreamed),
                             ("offline MTS", offline)):
        data[label] = edge_cut_ratio(graph, partition)
        table.add_row(label, round(data[label], 3))
    report.data["results"] = data
    report.add_note("Expected: refinement recovers most of the gap between "
                    "the stale partitioning and a full re-stream.")
    return report


def ablation_straggler(ctx: ExperimentContext | None = None,
                       dataset: str = "ldbc-snb", num_workers: int = 16,
                       slow_factor: float = 0.4) -> ExperimentReport:
    """Failure injection: one worker degrades to ``slow_factor`` speed.

    A straggling machine is the classic tail-latency amplifier.  The
    partition-aware router keeps sending it every query it owns, so a
    partitioning that concentrates hot data on the straggler suffers far
    more than one that spreads load — quantifying the resilience argument
    behind the paper's hash-partitioning recommendation for
    latency-critical workloads.
    """
    ctx = ctx or ExperimentContext()
    report = ExperimentReport(
        "ablation-straggler",
        f"Tail latency with one worker at {slow_factor:.0%} speed "
        f"({dataset}, {num_workers} workers, medium load)",
    )
    table = report.add_table(Table(
        "p99 latency (ms), healthy vs degraded cluster",
        ["Algorithm", "Healthy p99", "Straggler p99", "Blowup"],
    ))
    data = {}
    for algorithm in ("ecr", "ldg", "fennel", "mts"):
        healthy = ctx.simulation(dataset, algorithm, num_workers, "one_hop",
                                 clients_per_worker=12)
        # Degrade the worker that serves the most reads — the worst case
        # the operator cares about.
        hot_worker = int(np.argmax(healthy.read_distribution()))
        speeds = [1.0] * num_workers
        speeds[hot_worker] = slow_factor
        degraded = ctx.simulation(dataset, algorithm, num_workers, "one_hop",
                                  clients_per_worker=12, worker_speeds=speeds)
        h_p99 = healthy.latency().p99 * 1e3
        d_p99 = degraded.latency().p99 * 1e3
        data[algorithm] = (h_p99, d_p99)
        table.add_row(algorithm.upper(), round(h_p99, 1), round(d_p99, 1),
                      round(d_p99 / max(h_p99, 1e-9), 2))
    report.data["results"] = data
    report.add_note("Expected: every algorithm degrades, and partitionings "
                    "that concentrate hot data suffer the largest blowup "
                    "when their hottest worker straggles.")
    return report


def ablation_fault_tolerance(ctx: ExperimentContext | None = None,
                             dataset: str = "ldbc-snb",
                             num_workers: int = 16) -> ExperimentReport:
    """Fault injection on both substrates: availability and recovery cost.

    Extends the paper's straggler discussion (Section 5.2) from *slow*
    machines to *failing* ones.  Every algorithm is subjected to the same
    deterministic :class:`~repro.faults.FaultSchedule` — the paper's
    same-workload methodology, extended to failures:

    * two overlapping worker crashes (workers 1 and 2 — a window where
      the k=2 replica chain of worker 1 is entirely down, so availability
      depends on how much hot data the partitioner placed there);
    * one transient straggler at half speed;
    * a 1% wire-drop probability.

    The online half measures client-visible availability, retry traffic
    and tail latency under the schedule; the offline half crashes one
    machine mid-PageRank and measures checkpoint-restart recovery, whose
    cost (state lost, migration traffic, re-homing quality) depends on the
    partitioning under test.
    """
    from repro.faults import (
        ChaosHarness,
        CrashInterval,
        FaultSchedule,
        SlowdownInterval,
    )

    ctx = ctx or ExperimentContext()
    graph = ctx.graph(dataset)
    bindings = ctx.bindings(dataset, "one_hop")
    duration = ctx.profile.sim_duration
    slow_worker = min(4, num_workers - 1)
    schedule = FaultSchedule(
        crashes=(
            CrashInterval(1 % num_workers, 0.35 * duration, 0.55 * duration),
            CrashInterval(2 % num_workers, 0.40 * duration, 0.55 * duration),
        ),
        slowdowns=(
            SlowdownInterval(slow_worker, 0.65 * duration,
                             0.85 * duration, 0.5),
        ),
        drop_probability=0.01,
        seed=PARTITION_SEED,
    )

    report = ExperimentReport(
        "ablation-fault-tolerance",
        f"Availability and recovery under one fault schedule "
        f"({dataset}, {num_workers} workers)",
    )

    online_table = report.add_table(Table(
        "Online: availability / retries / tail latency under faults",
        ["Algorithm", "Availability", "Timeouts", "Retries", "Failed",
         "Healthy p99", "Faulted p99"],
    ))
    online = {}
    for algorithm in ("ecr", "ldg", "fennel"):
        healthy = ctx.simulation(dataset, algorithm, num_workers, "one_hop",
                                 clients_per_worker=12)
        faulted = ctx.simulation(dataset, algorithm, num_workers, "one_hop",
                                 clients_per_worker=12,
                                 fault_schedule=schedule)
        online[algorithm] = {
            "availability": faulted.availability,
            "timeouts": faulted.timeouts,
            "retries": faulted.retries,
            "failed": faulted.failed_queries,
            "healthy_p99_ms": healthy.latency().p99 * 1e3,
            "faulted_p99_ms": faulted.latency().p99 * 1e3,
        }
        online_table.add_row(
            algorithm.upper(),
            f"{faulted.availability:.4f}",
            faulted.timeouts, faulted.retries, faulted.failed_queries,
            round(online[algorithm]["healthy_p99_ms"], 1),
            round(online[algorithm]["faulted_p99_ms"], 1))

    # Offline: crash one machine mid-PageRank.  The crash instant is fixed
    # from the hash baseline's wall clock, so every algorithm faces the
    # same schedule.
    reference = ctx.analytics_run(dataset, "ecr", num_workers, "pagerank")
    crash_at = 0.4 * reference.execution_seconds
    engine_schedule = FaultSchedule.single_crash(
        1 % num_workers, crash_at, 0.2 * reference.execution_seconds,
        seed=PARTITION_SEED)

    offline_table = report.add_table(Table(
        "Offline: checkpoint-restart recovery of a mid-PageRank crash",
        ["Algorithm", "LostVertices", "MigrationKB", "ReExecSteps",
         "RecoveryMs", "Slowdown"],
    ))
    offline = {}
    for algorithm in ("ecr", "ldg", "fennel", "hdrf"):
        healthy = ctx.analytics_run(dataset, algorithm, num_workers,
                                    "pagerank")
        faulted = ctx.analytics_run(dataset, algorithm, num_workers,
                                    "pagerank",
                                    fault_schedule=engine_schedule,
                                    checkpoint_interval=2)
        lost = sum(e.lost_vertices for e in faulted.recovery_events)
        offline[algorithm] = {
            "lost_vertices": lost,
            "migration_bytes": faulted.migration_bytes,
            "reexecuted_supersteps": faulted.reexecuted_supersteps,
            "recovery_seconds": faulted.recovery_seconds,
            "slowdown": (faulted.execution_seconds
                         / healthy.execution_seconds),
        }
        offline_table.add_row(
            algorithm.upper(), lost,
            round(faulted.migration_bytes / 1e3, 1),
            faulted.reexecuted_supersteps,
            round(faulted.recovery_seconds * 1e3, 3),
            round(offline[algorithm]["slowdown"], 3))

    # The chaos invariant: the zero-fault schedule must reproduce the
    # fault-free baseline bit-for-bit (raises on violation).
    ChaosHarness().verify_simulation(
        graph, ctx.online_partition(dataset, "ecr", num_workers), bindings,
        duration=min(duration, 0.3), planner=ctx.planner(dataset))
    report.data["results"] = {"online": online, "offline": offline}
    report.add_note("Zero-fault schedule verified bit-identical to the "
                    "fault-free baseline (ChaosHarness).")
    report.add_note("Expected: placements concentrating hot data on the "
                    "crashed workers lose more availability online and "
                    "pay more recovery traffic offline; balanced hash "
                    "placements degrade the most gracefully.")
    return report


def ablation_partitioning_cost(ctx: ExperimentContext | None = None,
                               dataset: str = "twitter",
                               num_partitions: int = 16) -> ExperimentReport:
    """Partitioning wall time and synopsis memory per algorithm.

    Section 4.1.1: streaming partitioners are "approximately ten times
    faster than their offline counterpart, METIS, and only use a fraction
    of memory".  This measures both on the same graph: wall-clock per
    algorithm and peak additional memory during the partitioning call
    (via tracemalloc, so it captures the synopsis the algorithm keeps).
    """
    import time
    import tracemalloc

    from repro.experiments.runner import ExperimentContext as _Ctx

    ctx = ctx or ExperimentContext()
    graph = ctx.graph(dataset)
    report = ExperimentReport(
        "ablation-partitioning-cost",
        f"Partitioning cost on {dataset} "
        f"({graph.num_edges:,} edges, k={num_partitions})",
    )
    table = report.add_table(Table(
        "Wall time and peak synopsis memory",
        ["Algorithm", "Seconds", "Peak MB", "Edges/s"],
    ))
    data = {}
    for algorithm in ("ecr", "ldg", "fennel", "hdrf", "hg", "mts"):
        partitioner = _Ctx._make(algorithm)
        tracemalloc.start()
        started = time.time()
        partitioner.partition(graph, num_partitions, order=STREAM_ORDER,
                              seed=PARTITION_SEED)
        elapsed = time.time() - started
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        peak_mb = peak / 1e6
        data[algorithm] = (elapsed, peak_mb)
        table.add_row(algorithm.upper(), round(elapsed, 3),
                      round(peak_mb, 2), round(graph.num_edges / elapsed))
    report.data["results"] = data
    report.add_note("Expected: the hash methods are orders of magnitude "
                    "faster than MTS; every streaming method's synopsis is "
                    "a fraction of MTS's multilevel hierarchy.")
    return report


def ablation_sender_side_aggregation(ctx: ExperimentContext | None = None,
                                     dataset: str = "twitter",
                                     num_partitions: int = 16) -> ExperimentReport:
    """Quantify Appendix B: the edge-cut PageRank advantage.

    Compares the mirror-update traffic a changed vertex generates under
    the uni-directional rule (out-edge mirrors only — possible because
    out-edges are source-local in the Appendix-B placement) against the
    all-mirror rule a naive system would use.
    """
    ctx = ctx or ExperimentContext()
    graph = ctx.graph(dataset)
    report = ExperimentReport(
        "ablation-sender-side-aggregation",
        f"Appendix B: out-edge-local vs all-mirror updates on {dataset}",
    )
    table = report.add_table(Table(
        "Per-iteration mirror updates if every vertex changes",
        ["Algorithm", "Out-edge mirrors", "All mirrors", "Saving"],
    ))
    data = {}
    for algorithm in ("ecr", "ldg", "vcr", "hdrf", "hcr"):
        placement = Placement(graph, ctx.partition(dataset, algorithm,
                                                   num_partitions))
        out_updates = int(placement.mirror_counts_out.sum())
        all_updates = int(placement.mirror_counts_all.sum())
        saving = 1.0 - out_updates / all_updates if all_updates else 0.0
        data[algorithm] = (out_updates, all_updates, saving)
        table.add_row(algorithm.upper(), out_updates, all_updates,
                      f"{saving:.0%}")
    report.data["results"] = data
    report.add_note("Edge-cut placements save ~100% (out-edges are "
                    "master-local); vertex-cut placements save little — "
                    "the Figure 1(a) slope difference.")
    return report
