"""Tests for the experiment infrastructure: datasets, report, runner, CLI."""

import importlib
import inspect

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    EXPERIMENTS,
    ExperimentContext,
    ExperimentReport,
    Table,
)
from repro.experiments.online_service import scenario_config
from repro.experiments.runner import PARTITION_SEED
from repro.experiments.cli import main as cli_main
from repro.experiments.datasets import (
    DATASETS,
    active_scale,
    dataset_summary,
    load_dataset,
    scale_profile,
    sssp_source,
)


class TestDatasets:
    def test_all_datasets_load_quick(self):
        for name in DATASETS:
            graph = load_dataset(name, "quick")
            assert graph.num_vertices > 0
            assert graph.name == name

    def test_caching_returns_same_object(self):
        a = load_dataset("usa-road", "quick")
        b = load_dataset("usa-road", "quick")
        assert a is b

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ConfigurationError):
            load_dataset("facebook", "quick")

    def test_unknown_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            load_dataset("twitter", "huge")

    def test_scale_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "quick")
        assert active_scale() == "quick"
        assert active_scale("default") == "default"   # explicit wins

    def test_profile_fields(self):
        profile = scale_profile("quick")
        assert profile.pagerank_iterations >= 1
        assert len(profile.offline_partitions) >= 2

    def test_sssp_source_reaches_many(self):
        graph = load_dataset("twitter", "quick")
        source = sssp_source(graph)
        from repro.graph.analysis import bfs_distances
        assert (bfs_distances(graph, source) >= 0).mean() > 0.5

    def test_dataset_summary_types(self):
        assert dataset_summary("usa-road", "quick")["type"] == "low-degree"
        assert dataset_summary("uk-web", "quick")["type"] == "power-law"
        assert dataset_summary("twitter", "quick")["type"] == "heavy-tailed"


class TestReport:
    def test_table_rendering_aligned(self):
        table = Table("T", ["A", "LongHeader"])
        table.add_row(1, 2.5)
        table.add_row("xx", 10000.0)
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "LongHeader" in lines[1]
        assert len({len(line) for line in lines[2:]}) >= 1

    def test_row_width_checked(self):
        table = Table("T", ["A"])
        with pytest.raises(ValueError):
            table.add_row(1, 2)

    def test_report_render(self):
        report = ExperimentReport("x1", "Title")
        t = report.add_table(Table("T", ["A"]))
        t.add_row(3)
        report.add_note("a note")
        text = report.render()
        assert "x1" in text and "Title" in text and "a note" in text

    def test_float_formatting(self):
        table = Table("T", ["A"])
        table.add_row(0.123456)
        assert "0.123" in table.render()

    def test_add_grid_rounds_cells_and_returns_them_unrounded(self):
        report = ExperimentReport("x1", "Title")
        grid = report.add_grid(
            "G", "Partitions", [4, 8], ["ecr", "mts"],
            lambda k, algorithm: k / 3 if algorithm == "ecr" else k * 1.5,
            digits=2)
        assert grid == {4: {"ecr": 4 / 3, "mts": 6.0},
                        8: {"ecr": 8 / 3, "mts": 12.0}}
        table = report.tables[0]
        assert table.headers == ["Partitions", "ECR", "MTS"]
        assert table.rows == [[4, 1.33, 6.0], [8, 2.67, 12.0]]

    def test_add_grid_without_digits_prints_ints(self):
        report = ExperimentReport("x1", "Title")
        report.add_grid("G", "Load", {"medium": 12, "high": 24}, ["ldg"],
                        lambda label, algorithm: 2.6)
        rows = report.tables[0].rows
        assert rows == [["medium", 3], ["high", 3]]
        assert all(type(row[1]) is int for row in rows)

    def test_add_distributions_adds_one_box_line_per_algorithm(self):
        from repro.metrics import summarize

        report = ExperimentReport("x1", "Title")
        summaries = {"ecr": summarize(np.array([1.0, 2.0, 3.0, 10.0])),
                     "ldg": summarize(np.array([4.0, 4.0]))}
        assert report.add_distributions(
            "D", summaries, ("minimum", "median", "maximum"), 1) is summaries
        table = report.tables[0]
        assert table.headers == ["Algorithm", "Min", "Median", "Max",
                                 "Max/Mean"]
        ecr = summaries["ecr"]
        assert table.rows == [
            ["ECR", 1.0, 2.5, 10.0, round(ecr.max_over_mean, 2)],
            ["LDG", 4.0, 4.0, 4.0, 1.0],
        ]


class TestExperimentRegistry:
    def test_every_experiment_requires_a_context(self):
        # The caller's context owns the caches; no experiment makes its own.
        defaulted = [
            name for name, experiment in EXPERIMENTS.items()
            if inspect.signature(experiment).parameters["ctx"].default
            is not inspect.Parameter.empty]
        assert defaulted == []

    def test_entries_are_plain_functions(self):
        # The traced benchmark run wraps each entry by name.
        assert len(EXPERIMENTS) == 29
        assert all(inspect.isfunction(e) for e in EXPERIMENTS.values())

    def test_service_scenario_overrides_replace_fields(self):
        nominal = scenario_config(4_000, 7)
        assert nominal.mutations_per_epoch == 1_200
        assert nominal.mutation_service_rate == 1_200
        assert nominal.migration_budget == 1_000
        frozen = scenario_config(4_000, 11, drift_threshold=None,
                                 migration_budget=0)
        assert (frozen.seed, frozen.drift_threshold,
                frozen.migration_budget) == (11, None, 0)
        assert frozen.mutations_per_epoch == nominal.mutations_per_epoch


class TestRunner:
    def test_partition_cached(self):
        ctx = ExperimentContext(scale="quick")
        a = ctx.partition("usa-road", "ecr", 4)
        b = ctx.partition("usa-road", "ecr", 4)
        assert a is b

    def test_online_partition_rejects_vertex_cut(self):
        ctx = ExperimentContext(scale="quick")
        with pytest.raises(ValueError):
            ctx.online_partition("usa-road", "hdrf", 4)

    def test_bindings_fixed_across_calls(self):
        ctx = ExperimentContext(scale="quick")
        a = ctx.bindings("usa-road", "one_hop")
        b = ctx.bindings("usa-road", "one_hop")
        assert a is b

    def test_workload_factory(self):
        ctx = ExperimentContext(scale="quick")
        assert ctx.make_workload("pagerank", "usa-road").name == "pagerank"
        assert ctx.make_workload("wcc", "usa-road").name == "wcc"
        assert ctx.make_workload("sssp", "usa-road").name == "sssp"
        with pytest.raises(ValueError):
            ctx.make_workload("kcore", "usa-road")

    def test_analytics_run_cached(self):
        ctx = ExperimentContext(scale="quick")
        a = ctx.analytics_run("usa-road", "ecr", 4, "sssp")
        b = ctx.analytics_run("usa-road", "ecr", 4, "sssp")
        assert a is b

    def test_partition_order_and_params_are_keys(self, tmp_path):
        from repro.orchestrator import ArtifactCache

        ctx = ExperimentContext(scale="quick",
                                cache=ArtifactCache(tmp_path, fingerprint="fp"))
        default = ctx.partition("usa-road", "fennel", 4)
        ordered = ctx.partition("usa-road", "fennel", 4, order="random")
        swept = ctx.partition("usa-road", "fennel", 4, order="random",
                              gamma=2.0, load_cap=1.2)
        assert len({id(default), id(ordered), id(swept)}) == 3
        # Keyword order does not matter: the same memo entry.
        assert ctx.partition("usa-road", "fennel", 4, order="random",
                             load_cap=1.2, gamma=2.0) is swept
        fields = sorted((entry["fields"] for entry in ctx.cache.index()),
                        key=lambda f: (f["order"], "params" in f))
        base = {"dataset": "usa-road", "scale": "quick", "algorithm": "fennel",
                "k": 4, "seed": PARTITION_SEED}
        # A default call keys exactly as before: no params field.
        assert fields == [
            {**base, "order": "natural"},
            {**base, "order": "random"},
            {**base, "order": "random",
             "params": {"gamma": 2.0, "load_cap": 1.2}},
        ]

    def test_partition_jobs_carry_order_and_params(self):
        from repro.experiments.runner import partition_jobs
        from repro.orchestrator import JobGraph

        plan = JobGraph()
        default = plan.add(*partition_jobs(["usa-road"], ["fennel"], [4])[0])
        assert default == "partition:fennel/usa-road/4"
        assert plan.jobs[default].params == {
            "dataset": "usa-road", "algorithm": "fennel", "k": 4}
        swept = plan.add(*partition_jobs(["usa-road"], ["fennel"], [4],
                                         orders=["random"], gamma=[2.0],
                                         load_cap=[1.2])[0])
        assert swept == ("partition:fennel/usa-road/4/random/"
                         "{'gamma': 2.0, 'load_cap': 1.2}")
        reordered = plan.add(*partition_jobs(["usa-road"], ["fennel"], [4],
                                             orders=["random"], load_cap=[1.2],
                                             gamma=[2.0])[0])
        assert reordered == swept
        assert len(plan.jobs) == 2

    def test_simulations_share_one_uncached_planner(self, monkeypatch,
                                                    tmp_path):
        from repro.database import queries
        from repro.orchestrator import ArtifactCache

        planned = []
        plan_query = queries.plan_query

        def counting(graph, kind, start_vertex, **kwargs):
            planned.append((kind, start_vertex))
            return plan_query(graph, kind, start_vertex, **kwargs)

        monkeypatch.setattr(queries, "plan_query", counting)
        ctx = ExperimentContext(scale="quick", cache=ArtifactCache(tmp_path))
        planner = ctx.planner("usa-road")
        assert ctx.planner("usa-road") is planner
        assert planner.graph is ctx.graph("usa-road")
        for algorithm in ("ecr", "ldg"):
            ctx.simulation("usa-road", algorithm, 4, "one_hop",
                           clients_per_worker=2, duration=0.05)
        # Each binding was planned once, for both placements.
        assert planned and len(planned) == len(set(planned))
        # Plans stay in memory: nothing but the artifacts is stored.
        assert {entry["kind"] for entry in ctx.cache.index()} == \
            {"partition", "bindings", "simulation"}


class TestPartitioningCostTiming:
    def test_timed_calls_run_untraced(self, monkeypatch, small_twitter):
        """The report's seconds must not time tracemalloc's allocation
        hook: per algorithm, three timed calls run untraced, then one
        separate call runs traced for the peak-memory column."""
        import tracemalloc

        from repro.experiments import ablations

        tracing: dict[str, list[bool]] = {}
        make_seeded = ablations.make_seeded_partitioner

        def recording_factory(algorithm, seed, **kwargs):
            partitioner = make_seeded(algorithm, seed, **kwargs)
            partition = partitioner.partition

            def recording_partition(*args, **kw):
                tracing.setdefault(algorithm, []).append(
                    tracemalloc.is_tracing())
                return partition(*args, **kw)

            partitioner.partition = recording_partition
            return partitioner

        monkeypatch.setattr(ablations, "make_seeded_partitioner",
                            recording_factory)
        ctx = ExperimentContext(scale="quick")
        monkeypatch.setattr(ctx, "graph", lambda dataset: small_twitter)
        report = ablations.ablation_partitioning_cost(ctx)
        assert set(tracing) == set(report.data["results"])
        for algorithm, calls in tracing.items():
            assert calls == [False, False, False, True], algorithm


class TestSeedRegistry:
    def test_flags_match_constructor_signatures(self):
        import inspect

        from repro.partitioning import accepts_seed, make_partitioner

        for name in ("ecr", "ldg", "fennel", "hdrf", "vcr", "mts"):
            factory = type(make_partitioner(name))
            has_seed = "seed" in inspect.signature(factory).parameters
            assert accepts_seed(name) == has_seed

    def test_make_seeded_partitioner(self):
        from repro.partitioning import make_seeded_partitioner

        assert make_seeded_partitioner("ldg", 7).seed == 7
        # Hash-based: constructed without the keyword, no TypeError.
        make_seeded_partitioner("ecr", 7)

    def test_constructor_type_errors_propagate(self, monkeypatch):
        from repro.partitioning import registry

        def exploding(seed=None):
            raise TypeError("genuine constructor bug")

        monkeypatch.setitem(registry._FACTORIES, "ldg", exploding)
        with pytest.raises(TypeError, match="genuine constructor bug"):
            registry.make_seeded_partitioner("ldg", 7)


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figure2" in out and "table5" in out

    def test_unknown_experiment(self, capsys):
        assert cli_main(["figure99"]) == 2
        err = capsys.readouterr().err
        # Known experiments are listed one per line.
        assert "\n  table4\n" in err and "\n  figure2\n" in err

    def test_run_table3(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "quick")
        assert cli_main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "twitter" in out and "usa-road" in out

    def test_help_mentions_orchestrator_verbs(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["--help"])
        out = capsys.readouterr().out
        assert "run-all --jobs 4" in out
        assert "cache stats" in out

    def test_run_all_and_cache_stats(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SCALE", "quick")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert cli_main(["run-all", "table4", "--quiet"]) == 0
        assert "[run-all: 1 experiments" in capsys.readouterr().out
        assert cli_main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries:" in out and "partition" in out
        assert cli_main(["cache", "gc"]) == 0
        assert cli_main(["cache", "clear"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_run_all_rejects_bad_jobs(self, capsys, tmp_path, jobs):
        assert cli_main(["run-all", "table3", "--jobs", jobs,
                         "--cache-dir", str(tmp_path / "cache")]) == 2
        assert f"got {jobs}" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", [0, -4, True, 2.0, "2"])
    def test_run_experiments_rejects_bad_jobs(self, tmp_path, jobs):
        from repro.orchestrator import run_experiments

        with pytest.raises(ConfigurationError, match=repr(jobs)):
            run_experiments(["table3"], scale="quick", jobs=jobs,
                            cache=tmp_path / "cache")
        # Rejected before any cache is opened or plan built.
        assert not (tmp_path / "cache").exists()

    def test_run_all_unknown_experiment(self, capsys):
        assert cli_main(["run-all", "figure99"]) == 2
        assert "\n  table4\n" in capsys.readouterr().err

    @pytest.mark.parametrize("command, module", [
        ("trace", "repro.tools.trace_cli"),
        ("lint", "repro.tools.lint.cli"),
        ("sanitize", "repro.tools.sanitize"),
        ("serve-sim", "repro.service.cli"),
        ("health", "repro.tools.health_cli"),
        ("ingest", "repro.tools.ingest_cli"),
    ])
    def test_delegated_subcommands_reach_their_tool(self, monkeypatch,
                                                    command, module):
        seen = []
        monkeypatch.setattr(importlib.import_module(module), "main",
                            lambda argv: seen.append(argv) or 5)
        assert cli_main([command, "a", "--b"]) == 5
        assert seen == [["a", "--b"]]
