"""SLO ablation: which service policies breach which objectives.

The online-service experiment shows the migration-budget/quality/latency
trade-off in aggregate; this one judges the same service loop the way an
operator would — against declarative SLOs with error budgets
(``docs/slo.md``).  Four policy variants run the identical
seed-deterministic traffic:

* **nominal** — service rate matches offered load, migration on: every
  objective should hold (the calibration anchor for the default SLOs);
* **starved rate** — the apply rate is half the offered load: the
  backlog and write-shed budgets burn through and page;
* **no migration** — drift-triggered repartitioning disabled, judged
  against a *tight* drift objective: partition quality decays until the
  drift SLO breaches;
* **degradation on** — the starved policy with the SLO feedback hook
  (``slo_degradation=True``): page alerts tighten admission, trading
  extra shed writes for a bounded backlog.

The report table shows budget consumption, page/ticket counts and the
breached SLO set per policy; the data payload carries the full alert
timelines and observability digests so the run is byte-regressable.
"""

from __future__ import annotations

from repro.experiments.report import ExperimentReport, Table
from repro.experiments.datasets import ONLINE_DATASET
from repro.experiments.online_service import EPOCHS, scenario_config
from repro.experiments.runner import ExperimentContext, dataset_jobs, requires
from repro.service.core import PartitionedGraphService
from repro.telemetry.slo import default_service_slos

#: Seed for every service run in this experiment.
SERVICE_SEED = 11


def _variants(num_vertices: int):
    """(label, config) policy variants, in report order."""
    nominal = scenario_config(num_vertices, SERVICE_SEED)
    starved_rate = max(1, nominal.mutation_service_rate // 2)
    # Query latency grows with graph size (deeper khop frontiers), so
    # the latency objective scales with the scenario: nominal holds it
    # with headroom at every scale profile.
    p99_bound = 30.0 + num_vertices * 0.025
    slos = default_service_slos(p99_latency_ms=p99_bound)
    # The no-migration run is judged against a drift objective tight
    # enough that unrepaired decay breaches it inside the horizon.
    tight_drift = default_service_slos(p99_latency_ms=p99_bound,
                                       drift_bound=0.01)
    variants = (
        ("nominal", {"slos": slos}),
        ("starved rate",
         {"slos": slos, "mutation_service_rate": starved_rate}),
        ("no migration", {"drift_threshold": None, "slos": tight_drift}),
        ("degradation on",
         {"slos": slos, "mutation_service_rate": starved_rate,
          "slo_degradation": True}),
    )
    return [(label, scenario_config(num_vertices, SERVICE_SEED, **overrides))
            for label, overrides in variants]


# Like online-service, only the base graph is a plannable artifact.
@requires(lambda profile: dataset_jobs(ONLINE_DATASET))
def slo_ablation(ctx: ExperimentContext,
                 dataset: str = ONLINE_DATASET) -> ExperimentReport:
    """Run the policy sweep and report SLO breaches per configuration."""
    graph = ctx.graph(dataset)

    report = ExperimentReport(
        "slo-ablation",
        f"SLO ablation on {dataset} ({graph.num_vertices:,} vertices): "
        f"error-budget burn by service policy",
    )
    table = report.add_table(Table(
        "SLO outcome per policy "
        f"({EPOCHS} epochs, multi-window burn-rate alerting)",
        ["Policy", "Pages", "Tickets", "Breached SLOs",
         "WorstBudget", "ShedWrites", "Backlog", "FinalDrift"],
    ))
    data = {}
    for label, config in _variants(graph.num_vertices):
        result = PartitionedGraphService(graph, config=config).run()
        statuses = (result.slo_status or {}).get("slos", [])
        breached = [s["slo"]["name"] for s in statuses if s["breached"]]
        worst = max((s["consumed"] for s in statuses), default=0.0)
        pages = sum(s["pages"] for s in statuses)
        tickets = sum(s["tickets"] for s in statuses)
        final = result.drift[-1]
        backlog = result.epochs[-1].pending_mutations
        data[label] = {
            "pages": pages,
            "tickets": tickets,
            "breached": breached,
            "worst_budget_consumed": worst,
            "shed_writes": result.shed_writes,
            "final_backlog": backlog,
            "final_drift": final.drift,
            "alerts": [a.to_dict() for a in result.alerts],
            "slos": [{"name": s["slo"]["name"],
                      "consumed": s["consumed"],
                      "breached": s["breached"]} for s in statuses],
            "timeline_digest": result.digest(),
            "observability_digest": result.observability_digest(),
        }
        table.add_row(label, pages, tickets,
                      ", ".join(breached) if breached else "none",
                      f"{worst:.0%}", result.shed_writes, backlog,
                      round(final.drift, 4))
    report.data["results"] = data
    report.add_note("Expected: the nominal policy holds every objective; "
                    "starving the apply rate breaches backlog and "
                    "write-shed budgets (with pages); disabling migration "
                    "breaches the tight drift objective; the degradation "
                    "hook converts backlog into shed writes once paged.")
    return report
