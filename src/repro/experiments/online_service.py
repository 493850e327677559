"""Online-service experiment: migration budget vs quality vs latency.

The paper's Section 2 motivation — partitionings age under live mutation
traffic — becomes an end-to-end scenario here: the
:class:`~repro.service.PartitionedGraphService` ingests the same
seed-deterministic mutation/query stream under three policies (no
migration, a tight migration budget, a generous one) and the report
shows the robustness trade-off: a bounded repartitioning buys back cut
quality at a measurable latency price, while admission control keeps
read loss at zero throughout.
"""

from __future__ import annotations

from repro.experiments.report import ExperimentReport, Table
from repro.experiments.datasets import ONLINE_DATASET
from repro.experiments.runner import ExperimentContext, dataset_jobs, requires
from repro.service.config import ServiceConfig
from repro.service.core import PartitionedGraphService

#: Seed for every service run in this experiment (distinct streams per
#: epoch are derived inside the service).
SERVICE_SEED = 7

#: Epochs per service run — long enough for slo-ablation's slow-window
#: burn rates to mean something, short enough for the quick CI scale.
EPOCHS = 12


def scenario_config(num_vertices: int, seed: int,
                    **overrides) -> ServiceConfig:
    """The service scenario online-service and slo-ablation both run.

    Traffic scales with the graph size, the apply rate matches the
    offered mutations, and drift triggers migration under a generous
    budget; *overrides* replace any :class:`ServiceConfig` field.
    """
    mutations = max(200, (num_vertices * 3) // 10)
    settings = dict(
        num_partitions=8,
        epochs=EPOCHS,
        epoch_duration=0.2,
        seed=seed,
        mutations_per_epoch=mutations,
        query_bindings_per_epoch=40,
        drift_threshold=0.015,
        migration_budget=max(256, num_vertices // 4),
        mutation_queue_bound=mutations * 2,
        mutation_service_rate=mutations,
    )
    settings.update(overrides)
    return ServiceConfig(**settings)


# The service derives everything else (partitions, traffic, simulations)
# from its own seeds; only the base graph is a plannable artifact.
@requires(lambda profile: dataset_jobs(ONLINE_DATASET))
def online_service(ctx: ExperimentContext,
                   dataset: str = ONLINE_DATASET) -> ExperimentReport:
    """Drift -> bounded migration -> recovery, across budget policies."""
    graph = ctx.graph(dataset)
    # The scenario's own budget is the generous one.
    policies = (
        ("no migration", {"drift_threshold": None, "migration_budget": 0}),
        ("tight budget", {"migration_budget": max(64, graph.num_vertices // 16)}),
        ("generous budget", {}),
    )

    report = ExperimentReport(
        "online-service",
        f"Online partitioning service on {dataset} "
        f"({graph.num_vertices:,} vertices): migration budget ablation",
    )
    table = report.add_table(Table(
        "Final quality and latency by migration policy",
        ["Policy", "Migrations", "Moved", "FinalCut", "p99(ms)",
         "ShedWrites", "ShedReads", "Failed"],
    ))
    data = {}
    for label, overrides in policies:
        config = scenario_config(graph.num_vertices, SERVICE_SEED, **overrides)
        result = PartitionedGraphService(graph, config=config).run()
        final = result.drift[-1]
        p99 = max((record.p99_latency_ms for record in result.epochs),
                  default=0.0)
        data[label] = {
            "budget": config.migration_budget,
            "migrations": len(result.migrations),
            "vertices_migrated": result.vertices_migrated,
            "final_edge_cut": final.edge_cut,
            "worst_p99_ms": p99,
            "shed_writes": result.shed_writes,
            "shed_reads": result.shed_reads,
            "failed_queries": result.total_failed_queries,
            "digest": result.digest(),
        }
        table.add_row(label, len(result.migrations),
                      result.vertices_migrated, round(final.edge_cut, 3),
                      round(p99, 2), result.shed_writes, result.shed_reads,
                      result.total_failed_queries)
    report.data["results"] = data
    report.add_note("Expected: migration recovers the drifting edge cut "
                    "within its vertex budget; the recovery epoch pays a "
                    "visible p99 bump (state transfer shares the workers); "
                    "reads are never shed under nominal load.")
    return report
