"""The experiment suite as an explicit job DAG.

The paper's methodology is a dataflow: a *dataset* is generated, streamed
in a fixed *order*, *partitioned* by each algorithm at each cluster size,
the partitions are *placed*, *substrate runs* (GAS analytics / database
simulations) execute over the placements, *metrics* are reduced from the
runs, and each *table/figure* renders a slice of those metrics.  This
module makes that dataflow explicit as :class:`Job` nodes so the
scheduler can execute independent branches in parallel and resume from
whatever artifacts already exist.

Job kinds and their stage in the DAG::

    dataset ──► partition ──► analytics ─────┐
        │           │                        ├──► experiment
        └──► bindings ──► simulation ────────┘

(The *stream* stage is the ``order`` field of the partition jobs; the
*placement* and *metric* stages run inside their consumers — a placement
is derived in-process from the cached partition, and metric reduction is
part of each experiment's rendering.)

Each experiment declares the artifacts it reads beside its definition
(:func:`repro.experiments.runner.requires`); :func:`build_plan` plans
those.  Only derived runs an experiment builds from an earlier result
(the straggler's degraded runs, the fault ablation's faulted runs, the
scale sweep's ingests) are computed inside the experiment job, through
the same cache; a test pins that list.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import OrchestratorError
from repro.experiments.datasets import scale_profile

#: Execution stage per job kind (drives the deterministic serial order).
STAGE = {"dataset": 0, "partition": 1, "bindings": 1,
         "analytics": 2, "simulation": 2, "experiment": 3}


@dataclass
class Job:
    """One schedulable unit: an artifact to materialise or an experiment."""

    job_id: str
    kind: str
    params: dict = field(default_factory=dict)
    deps: tuple = ()


@dataclass
class JobGraph:
    """A validated DAG of jobs plus the experiment order to render in."""

    jobs: dict = field(default_factory=dict)
    experiments: tuple = ()

    def add(self, kind: str, params: dict, deps=()) -> str:
        job_id = _job_id(kind, params)
        existing = self.jobs.get(job_id)
        if existing is not None:
            existing.deps = tuple(sorted(set(existing.deps) | set(deps)))
            return job_id
        self.jobs[job_id] = Job(job_id, kind, dict(params),
                                tuple(sorted(set(deps))))
        return job_id

    def topological_order(self) -> list:
        """Deterministic schedule: by stage, then job id (serial order)."""
        order = sorted(self.jobs.values(),
                       key=lambda j: (STAGE[j.kind], j.job_id))
        seen = set()
        for job in order:
            missing = [d for d in job.deps if d not in self.jobs]
            if missing:
                raise OrchestratorError(
                    f"job {job.job_id} depends on unknown job(s) {missing}")
            if any(d not in seen and STAGE[self.jobs[d].kind] >= STAGE[job.kind]
                   for d in job.deps):
                raise OrchestratorError(
                    f"job {job.job_id} has a dependency at the same or a "
                    f"later stage — the DAG is not stage-stratified")
            seen.add(job.job_id)
        return order

    def counts(self) -> dict:
        out: dict[str, int] = {}
        for job in self.jobs.values():
            out[job.kind] = out.get(job.kind, 0) + 1
        return out


def _job_id(kind: str, params: dict) -> str:
    parts = [str(params[key]) for key in sorted(params)]
    return f"{kind}:" + "/".join(parts) if parts else kind


# ----------------------------------------------------------------------
# Planning from the experiments' declarations
# ----------------------------------------------------------------------
def build_plan(names, scale: str | None = None) -> JobGraph:
    """The job DAG covering *names* at *scale*.

    Shared artifacts are deduplicated: the Fig. 2 partitionings feed
    Figs. 1/3/4/13 as single partition jobs, and the online simulations
    Table 5 and Figs. 5–7 share appear once.
    """
    from repro.experiments import EXPERIMENTS

    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        raise OrchestratorError(f"unknown experiment(s): {unknown}")

    profile = scale_profile(scale)
    plan = JobGraph(experiments=tuple(names))
    for name in names:
        requirements = getattr(EXPERIMENTS[name], "requirements",
                               lambda profile: ())
        dep_ids = [_add_artifact(plan, spec) for spec in requirements(profile)]
        plan.add("experiment", {"name": name}, deps=dep_ids)
    return plan


def _add_artifact(plan: JobGraph, spec) -> str:
    kind, params = spec
    if kind == "dataset":
        return plan.add(kind, params)
    if kind in ("partition", "bindings"):
        dataset = plan.add("dataset", {"dataset": params["dataset"]})
        return plan.add(kind, params, deps=[dataset])
    if kind not in ("analytics", "simulation"):
        raise OrchestratorError(f"unknown artifact kind {kind!r}")
    deps = [plan.add("partition", {key: params[key]
                                   for key in ("dataset", "algorithm", "k")})]
    if kind == "simulation":
        deps.append(plan.add("bindings", {"dataset": params["dataset"],
                                          "kind": params["kind"]}))
    return plan.add(kind, params, deps=deps)
