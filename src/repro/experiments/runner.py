"""Experiment orchestration: shared context, caching, sweep helpers.

One figure often reuses another's expensive intermediates (the Fig. 2
partitionings feed Figs. 1/3/4; the online partitionings feed Table 5 and
Figs. 5–8).  :class:`ExperimentContext` owns those caches, the scale
profile, and the seeds, so a full `run_all` regenerates every table and
figure from one consistent universe — the paper's "same partitions across
all experiments" methodology.

The context has two cache tiers.  The in-memory memo gives the
historical behaviour: within one process, one universe of partitionings.
When a :class:`~repro.orchestrator.ArtifactCache` is attached (the
``repro run-all`` path — see ``docs/orchestrator.md``), every expensive
read — :meth:`partition`, :meth:`analytics_run`, :meth:`bindings`,
:meth:`simulation` — first consults the content-addressed on-disk store,
so warm re-runs skip all substrate computation, interrupted runs resume
from completed artifacts, and parallel workers share one universe across
process boundaries.  :meth:`placement` is derived data: it is rebuilt
from the (cached) partition rather than stored, because pickling a
placement would duplicate the whole graph into every blob.  So is
:meth:`planner`: one in-memory query planner per dataset, whose plans
every simulation of that dataset shares.

Each experiment also declares, beside it, the artifacts it reads
(:func:`requires`); the orchestrator plans exactly those as jobs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import product

from repro.analytics import (
    DEFAULT_COST_MODEL,
    GasEngine,
    PageRank,
    Placement,
    SingleSourceShortestPath,
    WeaklyConnectedComponents,
)
from repro.analytics.result import AnalyticsRun
from repro.database import QueryPlanner, WorkloadGenerator, simulate_workload
from repro.experiments.datasets import (
    active_scale,
    load_dataset,
    scale_profile,
    sssp_source,
)
from repro.partitioning import canonical_name, make_seeded_partitioner
from repro.partitioning.base import VertexPartition

#: Deterministic seed for partitioner tie-breaking / stream shuffles.
PARTITION_SEED = 1301
#: Stream order used throughout the experiments: datasets arrive in their
#: serialisation order, which carries locality for road/web graphs — the
#: same situation as the paper's bulk loads from disk.
STREAM_ORDER = "natural"
#: The offline analytics workloads (Table 2), in report order.
OFFLINE_WORKLOADS = ("pagerank", "wcc", "sssp")
#: Clients per worker of the two online load scenarios (Section 6.3.2).
MEDIUM_LOAD_CLIENTS = 12
HIGH_LOAD_CLIENTS = 24


# ----------------------------------------------------------------------
# Artifact declarations, read by repro.orchestrator.dag.build_plan.  A
# job's params are the keyword arguments of the context method that
# builds it; each helper plans one job per combination of its lists.
# ----------------------------------------------------------------------
def requires(spec):
    """Declare beside an experiment the artifacts it reads.

    *spec* maps a scale profile to ``(kind, params)`` jobs.  It is stored
    as the experiment's ``requirements`` attribute, which
    ``functools.wraps`` copies to a wrapper.
    """
    def declare(experiment):
        experiment.requirements = spec
        return experiment
    return declare


def _jobs(artifact: str, /, **axes) -> list:
    return [(artifact, dict(zip(axes, values)))
            for values in product(*axes.values())]


def dataset_jobs(*names) -> list:
    return _jobs("dataset", dataset=names)


def partition_jobs(datasets, algorithms, ks, orders=(STREAM_ORDER,),
                   **params) -> list:
    """Each keyword lists one partitioner parameter's values.  A job with
    the default order and no parameters plans as ``(dataset, algorithm, k)``."""
    names = sorted(params)
    settings = [dict(zip(names, values))
                for values in product(*(params[name] for name in names))]
    jobs = _jobs("partition", dataset=datasets, algorithm=algorithms, k=ks,
                 order=orders, params=settings)
    for _, job in jobs:
        if job["order"] == STREAM_ORDER:
            del job["order"]
        if not job["params"]:
            del job["params"]
    return jobs


def analytics_jobs(datasets, algorithms, ks, workloads) -> list:
    return _jobs("analytics", dataset=datasets, algorithm=algorithms, k=ks,
                 workload=workloads)


def simulation_jobs(datasets, algorithms, ks, kinds, clients) -> list:
    return _jobs("simulation", dataset=datasets, algorithm=algorithms, k=ks,
                 kind=kinds, clients_per_worker=clients)


@dataclass
class ExperimentContext:
    """Shared state for a batch of experiments at one scale.

    ``cache`` is an optional :class:`repro.orchestrator.ArtifactCache`;
    when present every expensive intermediate is read through (and
    written to) the on-disk content-addressed store.
    """

    scale: str | None = None
    cost_model: object = DEFAULT_COST_MODEL
    cache: object = None
    _artifacts: dict = field(default_factory=dict)
    _placements: dict = field(default_factory=dict)
    _planners: dict = field(default_factory=dict)

    @property
    def profile(self):
        return scale_profile(self.scale)

    @property
    def scale_name(self) -> str:
        """The resolved scale ('quick'/'default'/'large') used in keys."""
        return active_scale(self.scale)

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------
    def _through_cache(self, kind: str, fields: dict, compute):
        """Memo -> on-disk artifact cache -> compute (and backfill).

        *fields* key both tiers.  Every *compute* (a genuine recomputation,
        not a cache read) bumps the process-global
        ``orchestrator.computed.<kind>`` counter — the counter the warm-run
        acceptance check asserts stays at zero.
        """
        from repro import telemetry
        from repro.orchestrator.cache import MISS

        memo_key = (kind, json.dumps(fields, sort_keys=True))
        if memo_key in self._artifacts:
            return self._artifacts[memo_key]
        value = MISS if self.cache is None else self.cache.fetch(kind, fields)
        if value is MISS:
            value = compute()
            telemetry.get_metrics().counter(
                f"orchestrator.computed.{kind}").inc()
            if self.cache is not None:
                self.cache.store(kind, fields, value)
        self._artifacts[memo_key] = value
        return value

    # ------------------------------------------------------------------
    # Graphs & partitions
    # ------------------------------------------------------------------
    def graph(self, dataset: str):
        return load_dataset(dataset, self.scale)

    def partition(self, dataset: str, algorithm: str, k: int, *,
                  order: str = STREAM_ORDER, **params):
        """Partition *dataset* with *algorithm* into *k* parts (cached).

        *order* is the stream order and *params* the partitioner's
        constructor keywords (FENNEL's ``gamma``, HDRF's
        ``balance_weight``...).  Both are part of the artifact's fields,
        *params* sorted by name; a default call has no ``params`` field.
        """
        algorithm = canonical_name(algorithm)
        params = dict(sorted(params.items()))
        fields = {
            "dataset": dataset,
            "scale": self.scale_name,
            "algorithm": algorithm,
            "k": int(k),
            "order": order,
            "seed": PARTITION_SEED,
        }
        if params:
            fields["params"] = params

        def compute():
            partitioner = make_seeded_partitioner(algorithm, PARTITION_SEED,
                                                  **params)
            return partitioner.partition(self.graph(dataset), k, order=order,
                                         seed=PARTITION_SEED)

        return self._through_cache("partition", fields, compute)

    def placement(self, dataset: str, algorithm: str, k: int) -> Placement:
        """Placement for a (cached) partition.

        Derived data: rebuilt from the partition read through the cache
        rather than stored itself (a placement pickles the whole graph).
        """
        key = (dataset, canonical_name(algorithm), k)
        if key not in self._placements:
            self._placements[key] = Placement(
                self.graph(dataset), self.partition(dataset, algorithm, k),
            )
        return self._placements[key]

    # ------------------------------------------------------------------
    # Offline workloads
    # ------------------------------------------------------------------
    def make_workload(self, workload: str, dataset: str):
        if workload == "pagerank":
            return PageRank(num_iterations=self.profile.pagerank_iterations)
        if workload == "wcc":
            return WeaklyConnectedComponents()
        if workload == "sssp":
            return SingleSourceShortestPath(source=sssp_source(self.graph(dataset)))
        raise ValueError(f"unknown workload {workload!r}")

    def analytics_run(self, dataset: str, algorithm: str, k: int,
                      workload: str, *, fault_schedule=None,
                      checkpoint_interval: int | None = None) -> AnalyticsRun:
        """Run (and cache) one offline workload execution.

        ``fault_schedule``/``checkpoint_interval`` select the engine's
        fault-tolerant path; both are part of the cache key (the fault
        schedule by its deterministic ``repr``).
        """
        algorithm = canonical_name(algorithm)
        fields = {
            "dataset": dataset,
            "scale": self.scale_name,
            "algorithm": algorithm,
            "k": int(k),
            "workload": workload,
            "order": STREAM_ORDER,
            "seed": PARTITION_SEED,
            "cost_model": repr(self.cost_model),
            "faults": None if fault_schedule is None else repr(fault_schedule),
            "checkpoint_interval": checkpoint_interval,
        }

        def compute():
            engine = GasEngine(self.cost_model)
            kwargs = {}
            if fault_schedule is not None:
                kwargs["fault_schedule"] = fault_schedule
            if checkpoint_interval is not None:
                kwargs["checkpoint_interval"] = checkpoint_interval
            return engine.run(
                self.graph(dataset), self.placement(dataset, algorithm, k),
                self.make_workload(workload, dataset), **kwargs,
            )

        return self._through_cache("analytics", fields, compute)

    # ------------------------------------------------------------------
    # Out-of-core ingest
    # ------------------------------------------------------------------
    def ingest_run(self, spec: dict) -> dict:
        """Run (and cache) one out-of-core ingest described by *spec*.

        *spec* is the JSON-safe ``{"stream": {...}, "shard": {...}}``
        shape :func:`repro.ingest.run_ingest_spec` takes; the whole spec
        is the cache key.  Worker count is *not* part of the shard spec's
        identity (``ShardConfig.to_fields`` drops it), so summaries
        cached by a parallel run satisfy a serial re-run byte-for-byte.
        """
        from repro.ingest import ShardConfig, run_ingest_spec

        shard = ShardConfig(**dict(spec.get("shard", {})))
        fields = {
            "stream": dict(spec.get("stream", {})),
            "shard": shard.to_fields(),
        }
        return self._through_cache("ingest", fields,
                                   lambda: run_ingest_spec(spec))

    # ------------------------------------------------------------------
    # Online workloads
    # ------------------------------------------------------------------
    def bindings(self, dataset: str, kind: str):
        """The fixed binding set every algorithm serves (cached)."""
        fields = {
            "dataset": dataset,
            "scale": self.scale_name,
            "kind": kind,
            "num_bindings": self.profile.num_bindings,
            "skew": self.profile.workload_skew,
            "seed": PARTITION_SEED,
        }

        def compute():
            generator = WorkloadGenerator(
                self.graph(dataset), skew=self.profile.workload_skew,
                seed=PARTITION_SEED,
            )
            return generator.bindings(kind, self.profile.num_bindings)

        return self._through_cache("bindings", fields, compute)

    def planner(self, dataset: str) -> QueryPlanner:
        """The query planner every simulation of *dataset* shares.

        Derived data, like :meth:`placement`, and in memory only: plans
        never enter the artifact cache, a cache key or a digest.
        """
        if dataset not in self._planners:
            self._planners[dataset] = QueryPlanner(self.graph(dataset))
        return self._planners[dataset]

    def online_partition(self, dataset: str, algorithm: str,
                         k: int) -> VertexPartition:
        """Edge-cut partition for the database experiments (JanusGraph
        supports only the edge-cut model)."""
        partition = self.partition(dataset, algorithm, k)
        if not isinstance(partition, VertexPartition):
            raise ValueError(
                f"{algorithm} is not an edge-cut algorithm; the online "
                f"experiments only run edge-cut partitionings"
            )
        return partition

    def simulation(self, dataset: str, algorithm: str, k: int, kind: str, *,
                   clients_per_worker: int, duration: float | None = None,
                   worker_speeds=None, fault_schedule=None):
        """Run (and cache) one closed-loop database simulation.

        The standard online-experiment shape: *algorithm*'s edge-cut
        partition of *dataset* into *k* workers serving the fixed binding
        set of *kind*.  Heterogeneous speeds and fault schedules are part
        of the cache key (``worker_speeds`` as a float list, the schedule
        by its deterministic ``repr``).
        """
        algorithm = canonical_name(algorithm)
        if duration is None:
            duration = self.profile.sim_duration
        speeds = None if worker_speeds is None else [float(s) for s in worker_speeds]
        fields = {
            "dataset": dataset,
            "scale": self.scale_name,
            "algorithm": algorithm,
            "k": int(k),
            "kind": kind,
            "clients_per_worker": int(clients_per_worker),
            "duration": float(duration),
            "worker_speeds": speeds,
            "faults": None if fault_schedule is None else repr(fault_schedule),
            "order": STREAM_ORDER,
            "seed": PARTITION_SEED,
        }

        def compute():
            return simulate_workload(
                self.graph(dataset),
                self.online_partition(dataset, algorithm, k),
                self.bindings(dataset, kind),
                clients_per_worker=clients_per_worker,
                duration=duration,
                planner=self.planner(dataset),
                worker_speeds=speeds,
                fault_schedule=fault_schedule,
            )

        return self._through_cache("simulation", fields, compute)
