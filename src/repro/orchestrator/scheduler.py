"""Job scheduling over a process pool, with determinism assertions.

Two execution modes over the same :mod:`~repro.orchestrator.dag` plan:

* **serial** (``jobs=1``, the default) — every job runs in this process,
  in the deterministic stage order, sharing one
  :class:`~repro.experiments.runner.ExperimentContext`.  This is the
  determinism-parity baseline: byte-for-byte the behaviour of the
  historical ``run_all`` loop.
* **parallel** (``jobs=N``) — ready jobs are fanned out across a
  ``ProcessPoolExecutor``.  Workers share intermediates through the
  content-addressed :class:`~repro.orchestrator.cache.ArtifactCache`, so
  the Fig. 2 partitionings computed by one worker feed the Fig. 1/3/4
  analytics computed by others.

Every finished report is hashed with :func:`report_digest` (a canonical
value hash that ignores the wall-clock provenance trailer).  The digest
is stored with the report artifact, and every later read — a warm run, a
resumed run, a parallel re-run — recomputes and compares it, so *any*
divergence between serial and parallel execution raises
:class:`~repro.errors.OrchestratorError` instead of silently producing a
different paper.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError, OrchestratorError
from repro.experiments.datasets import active_scale
from repro.orchestrator.cache import MISS, ArtifactCache
from repro.orchestrator.dag import build_plan
from repro.telemetry import get_metrics
from repro.telemetry.timeseries import TimeSeriesSampler


# ----------------------------------------------------------------------
# Report digests
# ----------------------------------------------------------------------
def _canonical(obj):
    """A JSON-able canonical form of an arbitrary report payload.

    Value-based (no pickle memoisation, no object identity), so two runs
    that computed equal values — in different processes, from cache or
    from scratch — produce identical digests.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, (np.integer, np.bool_)):
        return _canonical(obj.item())
    if isinstance(obj, np.floating):
        return repr(float(obj))
    if isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj)
        return ["ndarray", str(data.dtype), list(data.shape),
                hashlib.sha256(data.tobytes()).hexdigest()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return [type(obj).__name__,
                [[f.name, _canonical(getattr(obj, f.name))]
                 for f in dataclasses.fields(obj)]]
    if isinstance(obj, (list, tuple)):
        return [_canonical(item) for item in obj]
    if isinstance(obj, dict):
        return ["dict", [[_canonical(k), _canonical(v)]
                         for k, v in obj.items()]]
    return ["repr", repr(obj)]


def report_digest(report) -> str:
    """Canonical content hash of a report, ignoring provenance.

    Provenance carries real wall-clock time and is therefore excluded:
    two runs are "byte-identical" when every table cell, note and data
    payload matches.
    """
    payload = _canonical([
        report.experiment_id,
        report.title,
        [[t.title, t.headers, t.rows] for t in report.tables],
        report.notes,
        report.data,
    ])
    encoded = json.dumps(payload, sort_keys=False, separators=(",", ":"))
    return hashlib.sha256(encoded.encode()).hexdigest()


def _report_fields(name: str, scale: str) -> dict:
    return {"experiment": name, "scale": scale}


# ----------------------------------------------------------------------
# Job execution (runs in pool workers and in-process)
# ----------------------------------------------------------------------
#: Per-process context reuse: pool processes execute many jobs; sharing
#: one ExperimentContext per (scale, cache) keeps the in-memory memo and
#: the dataset lru warm across jobs in the same worker.
_PROCESS_CONTEXTS: dict = {}


def _process_context(scale: str, cache_dir: str | None, fingerprint: str | None):
    from repro.experiments.runner import ExperimentContext

    key = (scale, cache_dir, fingerprint)
    ctx = _PROCESS_CONTEXTS.get(key)
    if ctx is None:
        cache = None
        if cache_dir is not None:
            cache = ArtifactCache(cache_dir, fingerprint=fingerprint)
        ctx = ExperimentContext(scale=scale, cache=cache)
        _PROCESS_CONTEXTS[key] = ctx
    return ctx


def reset_process_state() -> None:
    """Drop the per-process context memo (tests use this to simulate a
    fresh process between cold and warm runs)."""
    _PROCESS_CONTEXTS.clear()


#: The ExperimentContext method that builds each artifact kind; a job's
#: params are its keyword arguments (a partition's ``params`` spread out).
_BUILDERS = {"dataset": "graph", "partition": "partition",
             "bindings": "bindings", "analytics": "analytics_run",
             "simulation": "simulation"}


def _execute_job(task: dict):
    """Execute one job; returns ``(job_id, digest, report)``.

    ``digest``/``report`` are ``None`` for artifact jobs — their value
    lives in the shared cache, not on the result pipe.
    """
    ctx = _process_context(task["scale"], task["cache_dir"],
                           task["fingerprint"])
    kind, params = task["kind"], dict(task["params"])
    if kind == "experiment":
        return (task["job_id"], *_execute_experiment(ctx, params["name"],
                                                     task["scale"]))
    if kind not in _BUILDERS:
        raise OrchestratorError(f"unknown job kind {kind!r}")
    partitioner_params = params.pop("params", {})
    getattr(ctx, _BUILDERS[kind])(**params, **partitioner_params)
    return (task["job_id"], None, None)


def _execute_experiment(ctx, name: str, scale: str):
    from repro.experiments import EXPERIMENTS

    fields = _report_fields(name, scale)
    if ctx.cache is not None:
        cached = ctx.cache.fetch("report", fields)
        if cached is not MISS:
            return _verify_digest(ctx.cache, name, scale, cached), cached
    report = EXPERIMENTS[name](ctx)
    digest = report_digest(report)
    if ctx.cache is not None:
        # store() raises if a racing run produced a different digest for
        # the same key — the serial/parallel byte-identity assertion.
        ctx.cache.store("report", fields, report, digest=digest)
    return digest, report


def _verify_digest(cache: ArtifactCache, name: str, scale: str, report) -> str:
    """Recompute a cached report's digest and compare to its sidecar."""
    digest = report_digest(report)
    meta = cache.meta("report", _report_fields(name, scale)) or {}
    stored = meta.get("digest")
    if stored is not None and stored != digest:
        raise OrchestratorError(
            f"report {name!r} read back from cache hashes to "
            f"{digest[:12]}…, but was stored as {stored[:12]}… — the cache "
            f"is corrupt or the experiment is non-deterministic")
    return digest


# ----------------------------------------------------------------------
# The orchestrator
# ----------------------------------------------------------------------
@dataclass
class OrchestratorResult:
    """Outcome of one orchestrated run."""

    scale: str
    jobs: int
    #: Reports in request order, keyed by experiment name.
    reports: dict = field(default_factory=dict)
    #: Canonical content digest per report (provenance excluded).
    digests: dict = field(default_factory=dict)
    #: Jobs actually executed (after warm-cache pruning), by kind.
    executed: dict = field(default_factory=dict)
    #: Experiments served entirely from the report cache.
    cached_reports: int = 0
    wall_seconds: float = 0.0
    #: Snapshot of the cache's stats after the run (None when uncached).
    cache_stats: dict | None = None
    #: One MetricSample per finished job (process-global registry: the
    #: ``cache.*`` hit/miss counters plus the per-job wall histogram),
    #: in completion order.
    metric_samples: list = field(default_factory=list)


def run_experiments(names=None, *, scale: str | None = None, jobs: int = 1,
                    cache: ArtifactCache | str | bool | None = True,
                    fingerprint: str | None = None,
                    progress=None) -> OrchestratorResult:
    """Run *names* (default: every experiment) through the job DAG.

    Parameters
    ----------
    jobs:
        Worker processes, an int >= 1.  ``1`` (default) runs everything
        serially in-process — determinism parity with the historical
        ``run_all``.
    cache:
        ``True`` for the default cache dir, a path or
        :class:`ArtifactCache` for a specific one, ``False``/``None`` to
        disable caching entirely (each experiment job is then
        self-contained).
    progress:
        Optional ``callback(done, total, job_id)`` invoked as jobs finish.

    One :class:`~repro.telemetry.timeseries.MetricSample` of the
    process-global registry is recorded per finished job (cache hit/miss
    series + the ``orchestrator.job.wall_seconds`` histogram) into
    ``result.metric_samples``.  Times are wall-clock seconds since run
    start — the orchestrator lives outside simulated time, and its
    samples never enter any digest.
    """
    from repro.experiments import EXPERIMENTS

    if isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1:
        raise ConfigurationError(
            f"jobs must be an int >= 1, got {jobs!r}")
    names = list(EXPERIMENTS) if names is None else list(names)
    resolved_scale = active_scale(scale)
    started = time.time()

    store = None
    if isinstance(cache, ArtifactCache):
        store = cache
    elif cache is True:
        store = ArtifactCache(fingerprint=fingerprint)
    elif cache:
        store = ArtifactCache(cache, fingerprint=fingerprint)

    result = OrchestratorResult(scale=resolved_scale, jobs=jobs)

    plan = build_plan(names, resolved_scale)
    if store is None:
        # Without a shared store, artifact jobs cannot communicate their
        # results; each experiment job recomputes what it needs.
        plan.jobs = {job_id: job for job_id, job in plan.jobs.items()
                     if job.kind == "experiment"}
        for job in plan.jobs.values():
            job.deps = ()
        pending_names = list(names)
    else:
        pending_names = [n for n in names
                         if not store.contains("report",
                                               _report_fields(n, resolved_scale))]
        result.cached_reports = len(names) - len(pending_names)
        plan = _prune_plan(plan, pending_names)

    order = plan.topological_order()
    tasks = {
        job.job_id: {
            "job_id": job.job_id, "kind": job.kind, "params": job.params,
            "scale": resolved_scale,
            "cache_dir": None if store is None else str(store.root),
            "fingerprint": None if store is None else store.fingerprint,
        }
        for job in order
    }

    sampler = TimeSeriesSampler(get_metrics())
    job_hist = get_metrics().histogram("orchestrator.job.wall_seconds")
    last_tick = [0.0]

    def observe_job(job_wall: float) -> None:
        job_hist.observe(job_wall)
        # Wall clocks may repeat at coarse resolution; clamp to keep the
        # series monotone for the sampler's ordering contract.
        tick = max(time.time() - started, last_tick[0])
        last_tick[0] = tick
        sampler.sample(tick)

    outputs: dict[str, tuple] = {}
    if jobs <= 1 or len(order) <= 1:
        for index, job in enumerate(order):
            job_started = time.time()
            job_id, digest, report = _execute_job(tasks[job.job_id])
            outputs[job_id] = (digest, report)
            observe_job(time.time() - job_started)
            if progress is not None:
                progress(index + 1, len(order), job_id)
    else:
        outputs = _run_parallel(plan, order, tasks, jobs, progress,
                                observe_job)

    for job in order:
        result.executed[job.kind] = result.executed.get(job.kind, 0) + 1

    for name in names:
        job_id = f"experiment:{name}"
        if job_id in outputs:
            digest, report = outputs[job_id]
        else:
            # Served from the report cache (warm run): load and verify.
            report = store.fetch("report", _report_fields(name, resolved_scale))
            if report is MISS:
                # The blob looked present at planning time but failed to
                # load (corrupt/truncated — fetch evicted it).  Recompute
                # in-process through the cache rather than failing the run.
                ctx = _process_context(resolved_scale, str(store.root),
                                       store.fingerprint)
                digest, report = _execute_experiment(ctx, name, resolved_scale)
            else:
                digest = _verify_digest(store, name, resolved_scale, report)
        result.reports[name] = report
        result.digests[name] = digest

    result.wall_seconds = round(time.time() - started, 3)
    result.metric_samples = sampler.samples
    if store is not None:
        result.cache_stats = store.stats()
    return result


def _prune_plan(plan, pending_names):
    """Keep only the jobs the still-uncached experiments need.

    This is what makes a warm run *touch no substrate code*: experiments
    whose reports are already cached are dropped along with every
    artifact job only they needed.
    """
    keep: set[str] = set()
    stack = [f"experiment:{name}" for name in pending_names]
    while stack:
        job_id = stack.pop()
        if job_id in keep:
            continue
        keep.add(job_id)
        stack.extend(plan.jobs[job_id].deps)
    plan.jobs = {job_id: job for job_id, job in plan.jobs.items()
                 if job_id in keep}
    return plan


def _run_parallel(plan, order, tasks, jobs, progress, observe_job):
    """Ready-set scheduling over a process pool.

    ``observe_job`` receives each job's submit-to-finish wall seconds — queue wait included, since that is what the pool's
    critical path actually pays.
    """
    outputs: dict[str, tuple] = {}
    submit_times: dict[str, float] = {}
    remaining = {job.job_id: set(job.deps) for job in order}
    dependents: dict[str, list] = {}
    for job in order:
        for dep in job.deps:
            dependents.setdefault(dep, []).append(job.job_id)

    total = len(order)
    completed = 0
    # Spawn, not the platform default: fork would hand workers a warm
    # copy of the parent (imported modules, registry state), so serial
    # and parallel runs could diverge on what a worker has preloaded.
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=jobs, mp_context=context) as pool:
        futures = {}

        def submit_ready():
            ready = sorted(job_id for job_id, deps in remaining.items()
                           if not deps)
            for job_id in ready:
                del remaining[job_id]
                submit_times[job_id] = time.time()
                futures[pool.submit(_execute_job, tasks[job_id])] = job_id

        submit_ready()
        while futures:
            done, _ = wait(futures, return_when=FIRST_COMPLETED)
            for future in done:
                job_id = futures.pop(future)
                try:
                    finished_id, digest, report = future.result()
                except Exception as exc:
                    raise OrchestratorError(
                        f"job {job_id} failed: {exc}") from exc
                outputs[finished_id] = (digest, report)
                completed += 1
                observe_job(time.time() - submit_times[finished_id])
                if progress is not None:
                    progress(completed, total, finished_id)
                for dependent in dependents.get(finished_id, ()):
                    remaining[dependent].discard(finished_id)
            submit_ready()
    if remaining:
        raise OrchestratorError(
            f"deadlocked jobs with unsatisfied dependencies: "
            f"{sorted(remaining)[:5]}")
    return outputs
