"""Shared fixtures for the test suite."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import pytest

from repro.graph import Graph
from repro.graph.generators import (
    erdos_renyi,
    ldbc_like,
    path_graph,
    road_like,
    star_graph,
    twitter_like,
    web_like,
)


@pytest.fixture(scope="session")
def small_twitter() -> Graph:
    """A small heavy-tailed social graph (shared; treat as immutable)."""
    return twitter_like(num_vertices=1500, avg_degree=8, seed=101)


@pytest.fixture(scope="session")
def small_web() -> Graph:
    """A small power-law web graph."""
    return web_like(scale=10, edge_factor=8, seed=102)


@pytest.fixture(scope="session")
def small_road() -> Graph:
    """A small road-like grid graph."""
    return road_like(num_vertices=1600, seed=103)


@pytest.fixture(scope="session")
def small_social() -> Graph:
    """A small community-structured social graph."""
    return ldbc_like(num_vertices=1200, avg_degree=12, seed=104)


@pytest.fixture(scope="session")
def random_graph() -> Graph:
    """A uniform random multigraph."""
    return erdos_renyi(400, 3000, seed=105)


@pytest.fixture()
def tiny_graph() -> Graph:
    """A 6-vertex graph with a known structure::

        0 -> 1, 0 -> 2, 1 -> 2, 2 -> 3, 3 -> 4, 4 -> 5, 5 -> 3
    """
    src = np.array([0, 0, 1, 2, 3, 4, 5])
    dst = np.array([1, 2, 2, 3, 4, 5, 3])
    return Graph(6, src, dst, name="tiny")


@pytest.fixture()
def star() -> Graph:
    return star_graph(20)


@pytest.fixture()
def path() -> Graph:
    return path_graph(10)


@dataclass
class QuickRun:
    """One cold, serial, quick-scale run of every experiment."""

    #: The :class:`~repro.orchestrator.OrchestratorResult`.
    result: object
    #: Per job id: ``{artifact kind: count}`` computed while it ran.
    computed: dict
    #: Per job id: every ``(kind, key)`` artifact it read, datasets
    #: included.
    reads: dict
    #: Every metric name asked of any registry during the run.
    metric_names: set


@pytest.fixture(scope="session")
def quick_run(tmp_path_factory) -> QuickRun:
    """Run every experiment once, cold and serial, at the quick scale,
    sampling metrics as ``run-all`` does.

    The shape tests read its reports.  The plan-completeness test reads
    what each job computed (the ``orchestrator.computed.*`` counters,
    sampled through the ``progress`` callback) and what it read: every
    cache-backed artifact, each placement's partition and each dataset.
    The metric-name coverage test reads every name a registry was asked
    for.
    """
    from repro import telemetry
    from repro.experiments import datasets
    from repro.experiments.runner import ExperimentContext
    from repro.orchestrator import (
        ArtifactCache,
        reset_process_state,
        run_experiments,
    )

    through_cache = ExperimentContext._through_cache
    placement = ExperimentContext.placement
    load = datasets._load
    get_or_create = telemetry.MetricsRegistry._get_or_create
    registry = telemetry.MetricsRegistry()
    prefix = "orchestrator.computed."
    computed: dict = {}
    reads: dict = {}
    read: set = set()
    totals: dict = {}
    metric_names: set = set()

    def recording_through_cache(self, kind, fields, compute):
        read.add((kind, json.dumps(fields, sort_keys=True)))
        return through_cache(self, kind, fields, compute)

    def recording_placement(self, dataset, algorithm, k):
        # Placements are memoised outside the cache: read the partition
        # each time so the read is recorded.
        self.partition(dataset, algorithm, k)
        return placement(self, dataset, algorithm, k)

    def recording_load(name, scale):
        read.add(("dataset", name))
        return load(name, scale)

    def recording_get_or_create(self, name, cls):
        metric_names.add(name)
        return get_or_create(self, name, cls)

    def progress(done, total, job_id):
        now = {name[len(prefix):]: int(registry.value(name))
               for name in registry.names() if name.startswith(prefix)}
        computed[job_id] = {kind: count - totals.get(kind, 0)
                            for kind, count in now.items()
                            if count != totals.get(kind, 0)}
        totals.update(now)
        reads[job_id] = set(read)
        read.clear()

    previous = telemetry.set_metrics(registry)
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ExperimentContext, "_through_cache",
                          recording_through_cache)
            patch.setattr(ExperimentContext, "placement", recording_placement)
            patch.setattr(datasets, "_load", recording_load)
            patch.setattr(telemetry.MetricsRegistry, "_get_or_create",
                          recording_get_or_create)
            result = run_experiments(
                None, scale="quick", jobs=1, progress=progress,
                cache=ArtifactCache(tmp_path_factory.mktemp("quick-run"),
                                    fingerprint="test-fp"))
    finally:
        telemetry.set_metrics(previous)
        reset_process_state()
    return QuickRun(result, computed, reads, metric_names)
