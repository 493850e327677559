"""Tests for the top-level public API surface."""

import importlib
import types

import numpy as np
import pytest

import repro

#: Every module in the package that declares an ``__all__``; the export
#: contract is checked against each live module below.
PUBLIC_MODULES = (
    "repro",
    "repro.analytics",
    "repro.analytics.workloads",
    "repro.database",
    "repro.experiments",
    "repro.faults",
    "repro.graph",
    "repro.graph.generators",
    "repro.graph.sorting",
    "repro.ingest",
    "repro.ingest.format",
    "repro.ingest.memory",
    "repro.ingest.pipeline",
    "repro.ingest.quality",
    "repro.ingest.reader",
    "repro.ingest.shard",
    "repro.ingest.writer",
    "repro.metrics",
    "repro.orchestrator",
    "repro.partitioning",
    "repro.partitioning.degree_state",
    "repro.partitioning.kernels",
    "repro.service",
    "repro.telemetry",
    "repro.tools.lint",
    "repro.tools.sanitize",
)
from repro.errors import (
    ConfigurationError,
    GraphFormatError,
    PartitioningError,
    ReproError,
    SimulationError,
)


class TestExports:
    def test_version(self):
        assert repro.__version__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_error_hierarchy(self):
        for exc in (ConfigurationError, GraphFormatError, PartitioningError,
                    SimulationError):
            assert issubclass(exc, ReproError)
        assert issubclass(ReproError, Exception)

    def test_single_catch_all(self):
        with pytest.raises(ReproError):
            repro.make_partitioner("nonexistent")

    @pytest.mark.parametrize("module_name", PUBLIC_MODULES)
    def test_subpackage_all_imports_cleanly(self, module_name):
        """Each subpackage declares an ``__all__`` with no dangling names."""
        module = importlib.import_module(module_name)
        exported = module.__all__
        assert exported, module_name
        assert len(exported) == len(set(exported)), \
            f"duplicate __all__ entries in {module_name}"
        for name in exported:
            assert getattr(module, name, None) is not None, \
                f"{module_name}.__all__ names {name!r} but it does not resolve"

    def test_public_modules_list_is_complete(self):
        """Every package module declaring __all__ appears in PUBLIC_MODULES."""
        import re
        from pathlib import Path

        declares_all = re.compile(r"^__all__\s*=", re.MULTILINE)
        root = Path(repro.__file__).resolve().parent
        declared = set()
        for path in sorted(root.rglob("*.py")):
            if declares_all.search(path.read_text(encoding="utf-8")):
                parts = ("repro",) + path.relative_to(root).with_suffix("").parts
                if parts[-1] == "__init__":
                    parts = parts[:-1]
                declared.add(".".join(parts))
        assert declared == set(PUBLIC_MODULES)

    def test_every_public_name_is_exported(self):
        """A public name bound in ``repro`` (other than a subpackage) is
        listed in ``repro.__all__``."""
        bound = {name for name, value in vars(repro).items()
                 if not name.startswith("_")
                 and not isinstance(value, types.ModuleType)}
        assert sorted(bound - set(repro.__all__)) == []

    def test_star_import_matches_all(self):
        namespace: dict = {}
        exec("from repro import *", namespace)  # noqa: S102 - deliberate
        exported = {n for n in namespace if not n.startswith("_")}
        assert exported == set(repro.__all__) - {"__version__"}


class TestDocstringExample:
    def test_readme_quickstart_works(self):
        """The README / package-docstring example must keep working."""
        from repro.graph.generators import twitter_like
        from repro.metrics import replication_factor
        from repro.partitioning import make_partitioner

        graph = twitter_like(num_vertices=1000, seed=7)
        partition = make_partitioner("hdrf").partition(graph, 16,
                                                       order="random", seed=1)
        rf = replication_factor(graph, partition)
        assert 1.0 <= rf <= 16.0


class TestEndToEnd:
    def test_full_pipeline_offline(self):
        """Generate -> stream-partition -> place -> execute -> summarise."""
        from repro.analytics import PageRank, run_workload
        from repro.graph.generators import ldbc_like
        from repro.partitioning import make_partitioner

        graph = ldbc_like(num_vertices=800, avg_degree=10, seed=1)
        partition = make_partitioner("hg").partition(graph, 4,
                                                     order="random", seed=2)
        run = run_workload(graph, partition, PageRank(num_iterations=3))
        assert run.num_iterations == 3
        assert run.total_network_bytes > 0
        assert run.compute_distribution().maximum > 0

    def test_full_pipeline_online(self):
        """Generate -> partition -> bind -> simulate -> record -> reweight."""
        from repro.database import (
            WorkloadGenerator,
            plan_query,
            record_workload,
            simulate_workload,
        )
        from repro.graph.generators import ldbc_like
        from repro.partitioning import make_partitioner, workload_aware_partition

        graph = ldbc_like(num_vertices=800, avg_degree=10, seed=1)
        bindings = WorkloadGenerator(graph, skew=0.5, seed=3).bindings(
            "one_hop", 100)
        baseline = make_partitioner("ecr").partition(graph, 4)
        result = simulate_workload(graph, baseline, bindings, duration=0.2)
        assert result.completed_queries > 0

        log = record_workload(
            graph, [plan_query(graph, b.kind, b.start_vertex)
                    for b in bindings])
        weighted = workload_aware_partition(graph, 4, log.vertex_reads, seed=4)
        assert weighted.is_complete()

    def test_io_round_trip_through_partitioning(self, tmp_path):
        """Serialise a graph, reload it, and partition identically."""
        from repro.graph.generators import erdos_renyi
        from repro.graph.io import read_edge_list, write_edge_list
        from repro.partitioning import make_partitioner

        graph = erdos_renyi(100, 500, seed=5)
        path = tmp_path / "g.txt"
        write_edge_list(graph, path)
        reloaded = read_edge_list(path, num_vertices=100)
        a = make_partitioner("ecr").partition(graph, 4)
        b = make_partitioner("ecr").partition(reloaded, 4)
        assert np.array_equal(a.assignment, b.assignment)
