"""The four benchmark workloads, and the process that runs one repetition.

A repetition is one fresh interpreter started by ``run.py``::

    python benchmarks/e2e/workloads.py '<request JSON>'

It imports the product, generates the workload's inputs (set-up), runs
the workload once against an empty artifact cache, checks the outputs
and writes one JSON record to ``request["result"]``.  Only names listed
in a package ``__all__`` are used, so the benchmark survives refactors
behind those names.

Workloads (see README.md for why each was chosen):

* ``offline-analytics`` / ``online-queries`` / ``ablation-sweeps`` —
  :func:`repro.orchestrator.run_experiments` (the API behind
  ``run-all``) on fixed experiment subsets.  They replay the
  reproduction's fixed seeded universe, so ``--seed`` does not change
  them: every figure must share one set of partitions.
* ``service-churn`` — two :class:`repro.service.PartitionedGraphService`
  runs on an ``ldbc_like`` graph generated from ``--seed``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from repro import orchestrator
from repro.experiments import EXPERIMENTS, load_dataset
from repro.graph.generators import ldbc_like
from repro.service import PartitionedGraphService, ServiceConfig
from repro.telemetry import default_service_slos

from layers import LayerTrace, layer_metrics

SCALE = "quick"

#: run-all subsets: (experiments, worker processes).  Together with the
#: service workload they cover the work of all 29 experiments; the
#: service stands in for ``online-service`` and ``slo-ablation``.
RUN_ALL = {
    "offline-analytics": (("table3", "figure1", "figure2", "figure3",
                           "figure4", "figure9", "figure13"), 1),
    "online-queries": (("table4", "table5", "figure5", "figure6", "figure7",
                        "figure8", "figure12", "figure14", "figure15",
                        "ablation-straggler", "ablation-fault-tolerance"), 1),
    # The sweeps are the only work where job-level parallelism is the
    # mechanism.  The worker count is fixed, not the machine's core count,
    # so the workload is the same on every machine.
    "ablation-sweeps": (("ablation-stream-order", "ablation-fennel-gamma",
                         "ablation-hdrf-lambda", "ablation-ginger-threshold",
                         "ablation-restreaming", "ablation-dynamic-updates",
                         "ablation-partitioning-cost",
                         "ablation-sender-side-aggregation", "scale-sweep"), 2),
}
SERVICE = "service-churn"
SERVICE_VERTICES = 4_000
SERVICE_EPOCHS = 24

#: ``--smoke`` shrinks every workload to seconds: two cheap experiments
#: and a 3-epoch service.
SMOKE_EXPERIMENTS = ("table4", "figure7")
SMOKE_EPOCHS = 3

#: Reports that carry measured wall time by design, so their digest
#: differs between repetitions.
TIMED_EXPERIMENTS = ("ablation-partitioning-cost",)

WORKLOADS = (*RUN_ALL, SERVICE)


@dataclasses.dataclass
class Outcome:
    """The checked result of one workload call."""

    #: ``[name, ok]`` per operation: experiments, service runs, checks.
    operations: list = dataclasses.field(default_factory=list)
    #: Digest per deterministic report, compared across repetitions.
    digests: dict = dataclasses.field(default_factory=dict)

    def check(self, name: str, ok: bool) -> None:
        self.operations.append([name, bool(ok)])


# ----------------------------------------------------------------------
# run-all subsets
# ----------------------------------------------------------------------
def generate_datasets(names) -> None:
    """Set-up: generate every dataset the plan for *names* reads."""
    plan = orchestrator.build_plan(list(names), SCALE)
    for job in plan.jobs.values():
        if job.kind == "dataset":
            load_dataset(job.params["dataset"], SCALE)


def run_all(names, jobs: int, cache_dir: str):
    """The timed call: one orchestrated run of the registered *names*."""
    # Looked up on the package at call time, where the traced run wraps it.
    return orchestrator.run_experiments(
        [name for name in names if name in EXPERIMENTS], scale=SCALE,
        jobs=jobs, cache=cache_dir)


def check_run_all(names, result) -> Outcome:
    outcome = Outcome()
    # A name missing from the registry fails here: it is not a silently
    # smaller workload.
    for name in names:
        outcome.check(f"experiment {name}", name in result.reports)
    outcome.check("cold: no report served from cache", result.cached_reports == 0)
    outcome.check("cold: every experiment executed",
                  result.executed.get("experiment", 0) == len(names))
    outcome.digests = {name: digest for name, digest in result.digests.items()
                       if name not in TIMED_EXPERIMENTS}
    return outcome


# ----------------------------------------------------------------------
# service-churn
# ----------------------------------------------------------------------
def service_configs(num_vertices: int, seed: int, epochs: int) -> tuple:
    """slo-ablation's nominal policy, then its starved policy with the
    SLO degradation hook on — same traffic, twice the epochs."""
    mutations = max(200, (num_vertices * 3) // 10)
    nominal = ServiceConfig(
        num_partitions=8, epochs=epochs, epoch_duration=0.2, seed=seed,
        mutations_per_epoch=mutations, query_bindings_per_epoch=40,
        drift_threshold=0.015, migration_budget=max(256, num_vertices // 4),
        mutation_queue_bound=mutations * 2, mutation_service_rate=mutations,
        slos=default_service_slos(p99_latency_ms=30.0 + num_vertices * 0.025))
    starved = dataclasses.replace(
        nominal, mutation_service_rate=max(1, mutations // 2),
        slo_degradation=True)
    return nominal, starved


def admission_holds(result) -> bool:
    """Every epoch: carried-in + offered = applied + pending + shed writes."""
    carried = 0
    for epoch in result.epochs:
        if (carried + epoch.offered_mutations
                != epoch.applied_mutations + epoch.pending_mutations
                + epoch.shed_writes):
            return False
        carried = epoch.pending_mutations
    return True


def run_service(graph, configs) -> list:
    """The timed call: one service run per policy."""
    return [PartitionedGraphService(graph, config=config).run()
            for config in configs]


def check_service(configs, results) -> Outcome:
    outcome = Outcome()
    for label, config, result in zip(("nominal", "starved"), configs, results):
        outcome.check(f"service {label}", len(result.epochs) == config.epochs)
        outcome.check(f"service {label}: admission oracle", admission_holds(result))
        outcome.check(f"service {label}: zero reads shed",
                      result.shed_reads == 0
                      and all(e.shed_reads == 0 for e in result.epochs))
        outcome.digests[label] = result.digest()
    return outcome


# ----------------------------------------------------------------------
# One repetition
# ----------------------------------------------------------------------
def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    # Pool workers count once the pool has reaped them, which
    # run_experiments does before it returns.
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + workers.ru_utime + workers.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0  # ru_maxrss is KiB on Linux


def _tree_mb(root: Path) -> float:
    if not root.exists():
        return 0.0
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file()) / 2**20


def repetition(request: dict) -> dict:
    """Set up, run and check one workload; returns the JSON record.

    ``request["mode"]`` is ``"setup"`` (inputs only), ``"run"`` (one
    untraced call; ``request["serial"]`` forces one worker) or
    ``"trace"`` (one serial call with the layer wrappers installed,
    spans written to ``request["trace_path"]``).
    """
    workload, mode = request["workload"], request["mode"]
    seed, smoke = request["seed"], request["smoke"]
    if workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; expected {WORKLOADS}")

    generating = time.perf_counter()
    jobs = 1
    if workload == SERVICE:
        graph = ldbc_like(SERVICE_VERTICES, avg_degree=16.0, seed=seed)
        configs = service_configs(graph.num_vertices, seed,
                                  SMOKE_EPOCHS if smoke else SERVICE_EPOCHS)
        call = functools.partial(run_service, graph, configs)
        check = functools.partial(check_service, configs)
    else:
        names = SMOKE_EXPERIMENTS if smoke else RUN_ALL[workload][0]
        generate_datasets(name for name in names if name in EXPERIMENTS)
        # Wrappers do not cross spawned workers, so the traced run is
        # serial, and so are the untraced runs its overhead is measured by.
        if mode != "trace" and not request["serial"]:
            jobs = RUN_ALL[workload][1]
        call = functools.partial(run_all, names, jobs, request["cache_dir"])
        check = functools.partial(check_run_all, names)
    generate_s = time.perf_counter() - generating
    # Interpreter start, imports and input generation, timed from the
    # moment the parent started this process.
    record = {"setup_s": time.time() - request["spawned_at"]}
    if mode == "setup":
        return record

    trace = LayerTrace() if mode == "trace" else nullcontext()
    cpu_before = _cpu_seconds()
    started = time.perf_counter()
    with trace:
        result = call()
    record.update(
        wall_s=time.perf_counter() - started,
        cpu_s=_cpu_seconds() - cpu_before,
        peak_rss_mb=_peak_rss_mb(),
        jobs=jobs,
    )
    outcome = check(result)
    record.update(operations=outcome.operations, digests=outcome.digests)
    if mode == "trace":
        trace.tracer.write_jsonl(request["trace_path"])
        record["layers"] = layer_metrics(
            trace.tracer.spans, generate_s=generate_s,
            cache_mb=_tree_mb(Path(request["cache_dir"])))
    return record


def main(argv: list) -> int:
    request = json.loads(argv[1])
    record = repetition(request)
    Path(request["result"]).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
