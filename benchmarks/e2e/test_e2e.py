"""Self-tests of the end-to-end benchmark: ``pytest benchmarks/e2e -q``."""

from __future__ import annotations

import ast
import json
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.telemetry import read_jsonl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    proc = _bench("--smoke", "--out-dir", str(out))
    assert proc.returncode == 0, proc.stderr
    return out, proc.stdout


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert set(NAMES) == set(workloads.WORKLOADS)
    names = NAMES + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_smoke_emits_every_declared_metric_with_its_unit(smoke):
    out, stdout = smoke
    summary = json.loads((out / "BENCH_e2e.json").read_text())["summary"]
    for workload in NAMES:
        entry = summary[workload]
        assert entry["failed"] == 0
        assert {name: s["unit"] for name, s in entry["end_to_end"].items()} == {
            m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        assert set(entry["layers"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.search(rf"{re.escape(metric['name'])}\s+{re.escape(metric['unit'])}\s",
                         stdout), metric


@pytest.mark.parametrize("trace, declared", [("0", "end_to_end"), ("1", "per_layer")])
def test_workload_form_prints_one_json_result(tmp_path, trace, declared):
    proc = _bench("--workload", "service-churn", "--seed", "5", "--seconds", "1",
                  "--trace", trace, "--smoke", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[declared]}


def test_traces_load_with_the_product_reader(smoke):
    out, _ = smoke
    layer_names = {m["name"].rsplit(".", 1)[0] for m in SPEC["per_layer"]}
    for workload in NAMES:
        spans = read_jsonl(out / f"e2e-trace-{workload}.jsonl")
        roots = [s for s in spans if s.parent_id is None]
        assert [s.name for s in roots] == [layers.ROOT]
        assert {s.name for s in spans} - {layers.ROOT} <= layer_names


def test_wrappers_leave_digests_unchanged_and_restore_every_name(tmp_path):
    names = workloads.SMOKE_EXPERIMENTS
    plain = workloads.check_run_all(
        names, workloads.run_all(names, 1, str(tmp_path / "plain")))
    graph = workloads.ldbc_like(500, avg_degree=8.0, seed=3)
    configs = workloads.service_configs(graph.num_vertices, 3, 3)
    service = workloads.check_service(configs, workloads.run_service(graph, configs))
    originals = [layers._get(c, n) for c, n, _, _ in layers.targets()]
    with layers.LayerTrace() as trace:
        traced = workloads.check_run_all(
            names, workloads.run_all(names, 1, str(tmp_path / "traced")))
        traced_service = workloads.check_service(
            configs, workloads.run_service(graph, configs))
    assert traced.digests == plain.digests and len(plain.digests) == len(names)
    assert traced_service.digests == service.digests
    assert all(ok for _, ok in plain.operations + traced_service.operations)
    assert [layers._get(c, n) for c, n, _, _ in layers.targets()] == originals
    assert trace.tracer.num_spans > 0


def test_checks_fail_a_missing_experiment_a_warm_run_and_a_lost_write():
    warm = SimpleNamespace(reports={"table4": None}, cached_reports=1,
                           executed={"experiment": 0}, digests={"table4": "d"})
    failed = [name for name, ok in workloads.check_run_all(
        ["table4", "no-such-experiment"], warm).operations if not ok]
    assert failed == ["experiment no-such-experiment",
                      "cold: no report served from cache",
                      "cold: every experiment executed"]

    def epoch(offered, applied, pending, shed):
        return SimpleNamespace(offered_mutations=offered, applied_mutations=applied,
                               pending_mutations=pending, shed_writes=shed)

    held = SimpleNamespace(epochs=[epoch(10, 6, 3, 1), epoch(10, 6, 7, 0)])
    lost = SimpleNamespace(epochs=[epoch(10, 6, 3, 1), epoch(10, 6, 6, 0)])
    assert workloads.admission_holds(held)
    assert not workloads.admission_holds(lost)


def test_benchmark_imports_no_private_product_name():
    for path in HERE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                parts = node.module.split(".") + [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                parts = [part for alias in node.names if alias.name.startswith("repro")
                         for part in alias.name.split(".")]
            else:
                continue
            assert not any(part.startswith("_") for part in parts), (path.name, parts)


@pytest.mark.parametrize("change, verdict", [
    ([8.0, 8.1, 7.9, 8.0, 8.2], "better"),
    ([12.0, 12.1, 11.9, 12.0, 12.2], "worse"),
    ([10.1, 9.9, 10.0, 10.2, 9.8], "unchanged"),
])
def test_compare_verdicts(change, verdict):
    parent = {i: v for i, v in enumerate([10.0, 10.1, 9.9, 10.0, 10.2])}
    _, got = run.judge(parent, dict(enumerate(change)), 0.1, lower_is_better=True)
    assert got == verdict


def test_compare_reports_a_noisy_metric_as_unresolved():
    parent = dict(enumerate([6.0, 10.0, 14.0, 8.0, 12.0]))
    _, got = run.judge(parent, dict(enumerate([10.5, 9.0, 11.0, 13.0, 7.0])), 0.1,
                       lower_is_better=True)
    assert got == "unresolved"
