"""Per-layer attribution for the traced repetition.

The traced run measures the product from outside.  :class:`LayerTrace`
replaces public names (names listed in a package ``__all__``) at the
place where their callers look them up, records one wall-clock span per
call into a benchmark-owned :class:`repro.telemetry.Tracer`, and puts
every name back on exit.  The global tracer is never touched, so the
product's own simulated-time telemetry and every digest stay as they are.

Span names are layer names, timestamps are wall seconds since the traced
call began, and the root span ``workload`` is the call itself.  A
layer's self time is the time its spans cover minus the time their child
spans cover (:func:`repro.telemetry.hot_spans`), so the root's self time
is the part no layer claims.  The JSONL file renders with
``python -m repro trace``.
"""

from __future__ import annotations

import functools
import statistics
import time

import repro.ingest
import repro.orchestrator
import repro.partitioning
import repro.service.core
from repro.analytics import GasEngine, Placement
from repro.database import ClosedLoopSimulation, GraphMutationLog
from repro.experiments import EXPERIMENTS
from repro.orchestrator import ArtifactCache
from repro.partitioning import IncrementalEdgeCutPartitioner
from repro.service import DriftMonitor, PartitionedGraphService, TrafficModel
from repro.telemetry import Tracer, hot_spans

ROOT = "workload"

#: Epochs averaged at each end of a service run for ``epoch_growth``.
GROWTH_WINDOW = 6


# Work counted on each span, from the wrapped call's arguments or result.
def _input_edges(result, partitioner, graph, *args, **kwargs) -> dict:
    return {"edges": graph.num_edges}


def _output_edges(graph, *args, **kwargs) -> dict:
    return {"edges": graph.num_edges}


def _gas_work(run, *args, **kwargs) -> dict:
    return {"supersteps": run.num_iterations, "messages": run.total_messages}


def _des_work(result, *args, **kwargs) -> dict:
    return {"requests": int(result.requests_per_worker.sum()),
            "queries": result.completed_queries + result.failed_queries,
            "failed": result.failed_queries}


def _mutations(traffic, *args, **kwargs) -> dict:
    return {"mutations": len(traffic.mutations)}


def _moved(plan, *args, **kwargs) -> dict:
    return {"vertices": 0 if plan is None else plan.num_vertices_moved}


def _ingested(summary, *args, **kwargs) -> dict:
    return {"edges": summary["num_edges"]}


def targets() -> list:
    """``(container, name, layer, work)`` for every wrapped entry point.

    A container is a class or module (patched attribute) or a dict
    (patched item); each name is wrapped where it is defined.
    """
    # partition() lives on the two streaming base classes and on
    # MultilevelPartitioner, which subclasses neither.
    owners = []
    for name in repro.partitioning.__all__:
        cls = getattr(repro.partitioning, name)
        if (name.endswith("Partitioner") and isinstance(cls, type)
                and hasattr(cls, "partition")):
            owner = next(c for c in cls.__mro__ if "partition" in vars(c))
            if owner not in owners:
                owners.append(owner)
    found = [(owner, "partition", "partitioning", _input_edges)
             for owner in owners]
    found += [
        (IncrementalEdgeCutPartitioner, "add_vertex", "partitioning.dynamic", None),
        (IncrementalEdgeCutPartitioner, "apply_moves", "partitioning.dynamic", None),
        (GasEngine, "run", "analytics.engine", _gas_work),
        (Placement, "__init__", "analytics.placement", None),
        (ClosedLoopSimulation, "run", "database.simulation", _des_work),
        (GraphMutationLog, "materialize", "database.mutations", _output_edges),
        (TrafficModel, "epoch_traffic", "service.traffic", _mutations),
        (DriftMonitor, "observe", "service.drift", None),
        # The service module imported plan_migration by name.
        (repro.service.core, "plan_migration", "service.migration", _moved),
        (PartitionedGraphService, "run", "service.core", None),
        # ExperimentContext imports it from the package at call time.
        (repro.ingest, "run_ingest_spec", "ingest", _ingested),
        (ArtifactCache, "store", "orchestrator.cache", None),
        (ArtifactCache, "fetch", "orchestrator.cache", None),
        (repro.orchestrator, "run_experiments", "orchestrator.scheduler", None),
    ]
    found += [(EXPERIMENTS, name, "experiments", None) for name in EXPERIMENTS]
    return found


def _get(container, name):
    return container[name] if isinstance(container, dict) else vars(container)[name]


def _put(container, name, value) -> None:
    if isinstance(container, dict):
        container[name] = value
    else:
        setattr(container, name, value)


class LayerTrace:
    """Context manager: wrap every layer, record spans, restore on exit.

    Only the outermost call of a layer gets a span, so a partitioner
    that runs another partitioner counts once.
    """

    def __init__(self) -> None:
        self.tracer = Tracer(enabled=True)
        self._origin = 0.0
        self._open: list[tuple[int, str]] = []  # (span id, layer), innermost last
        self._undo: list[tuple] = []

    def _now(self) -> float:
        return time.perf_counter() - self._origin

    def __enter__(self) -> LayerTrace:
        for container, name, layer, work in targets():
            self._wrap(container, name, layer, work)
        self._origin = time.perf_counter()
        self._open.append((self.tracer.begin(ROOT, 0.0, parent=None), ROOT))
        return self

    def __exit__(self, *exc) -> None:
        root, _ = self._open[0]
        self._open.clear()
        self.tracer.end(root, self._now())
        for container, name, original in reversed(self._undo):
            _put(container, name, original)
        self._undo.clear()

    def _wrap(self, container, name, layer, work) -> None:
        original = _get(container, name)
        tracer, stack = self.tracer, self._open

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if any(open_layer == layer for _, open_layer in stack):
                return original(*args, **kwargs)
            span = tracer.begin(layer, self._now(), parent=stack[-1][0])
            stack.append((span, layer))
            counted = {}
            try:
                result = original(*args, **kwargs)
                if work is not None:
                    counted = work(result, *args, **kwargs)
                return result
            finally:
                stack.pop()
                tracer.end(span, self._now(), **counted)

        _put(container, name, wrapper)
        self._undo.append((container, name, original))


# ----------------------------------------------------------------------
# Metrics from a recorded trace
# ----------------------------------------------------------------------
def epoch_walls(spans) -> list:
    """Per service run, each epoch's wall seconds: the time between
    successive ``epoch_traffic`` entries (the last epoch ends with the run)."""
    runs = []
    for core in (s for s in spans if s.name == "service.core"):
        starts = sorted(s.start for s in spans
                        if s.name == "service.traffic" and s.parent_id == core.span_id)
        bounds = starts + [core.end]
        runs.append([end - start for start, end in zip(bounds, bounds[1:])])
    return runs


def _growth(walls: list) -> float:
    window = min(GROWTH_WINDOW, len(walls) // 2)
    if window == 0:
        return 0.0
    return statistics.fmean(walls[-window:]) / statistics.fmean(walls[:window])


def layer_metrics(spans, *, generate_s: float, cache_mb: float) -> dict:
    """Every per-layer metric of one traced repetition except
    ``trace.overhead``, which needs the untraced runs.

    *generate_s* is the dataset-generation part of set-up, timed
    directly; *cache_mb* the artifact cache's size after the run.
    """
    rows = {row["name"]: row for row in hot_spans(spans, top=None)}
    wall = rows[ROOT]["total_seconds"]
    metrics: dict = {}

    def work(layer: str, counter: str):
        return sum(s.attrs.get(counter, 0) for s in spans if s.name == layer)

    def layer(name: str, *, calls=True, share=False, rate=None) -> None:
        row = rows.get(name, {})
        busy = row.get("self_seconds", 0.0)
        if calls:
            metrics[f"{name}.calls"] = row.get("count", 0)
        metrics[f"{name}.self_s"] = busy
        if share:
            metrics[f"{name}.share"] = busy / wall
        if rate is not None:
            done = work(name, rate)
            metrics[f"{name}.{rate}"] = done
            metrics[f"{name}.{rate}_per_s"] = done / busy if busy else 0.0

    layer("partitioning", share=True, rate="edges")
    layer("partitioning.dynamic")
    layer("analytics.engine", share=True, rate="supersteps")
    metrics["analytics.engine.messages"] = work("analytics.engine", "messages")
    layer("analytics.placement")
    layer("database.simulation", share=True, rate="requests")
    queries = work("database.simulation", "queries")
    metrics["database.simulation.queries"] = queries
    metrics["database.simulation.failed_share"] = (
        work("database.simulation", "failed") / queries if queries else 0.0)
    layer("database.mutations", share=True, rate="edges")
    layer("service.traffic", share=True, rate="mutations")
    layer("service.drift")
    layer("service.migration")
    metrics["service.migration.vertices"] = work("service.migration", "vertices")
    layer("service.core", calls=False, share=True)
    runs = epoch_walls(spans)
    epochs_ms = sorted(wall_s * 1e3 for walls in runs for wall_s in walls)
    p50 = p75 = growth = 0.0
    if epochs_ms:
        p50 = statistics.median(epochs_ms)
        p75 = (statistics.quantiles(epochs_ms, n=4)[2] if len(epochs_ms) > 1
               else epochs_ms[0])
        growth = statistics.fmean(_growth(walls) for walls in runs)
    metrics["service.core.epoch_p50_ms"] = p50
    metrics["service.core.epoch_p75_ms"] = p75
    metrics["service.core.epoch_growth"] = growth
    layer("ingest", share=True, rate="edges")
    layer("orchestrator.cache")
    metrics["orchestrator.cache.cache_mb"] = cache_mb
    layer("orchestrator.scheduler", calls=False)
    layer("experiments", calls=False, share=True)
    metrics["graph.generators.self_s"] = generate_s
    metrics["unattributed.share"] = rows[ROOT]["self_seconds"] / wall
    return metrics
