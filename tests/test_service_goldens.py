"""Golden digests for the online service.

Every service run is a pure function of ``(base graph, ServiceConfig)``,
so its :meth:`~repro.service.ServiceResult.digest` pins the whole
mutation and query stream: every random draw, every replayed edge id and
every DES outcome.  The digests in ``tests/data_service_digests.json``
were recorded before the epoch loop's traffic sampler and mutation-log
replay were rewritten for speed; a change that shifts a single draw or
reorders a single edge fails here.

Scenarios: the ``serve-sim`` CLI (default and ``--epochs 10``, the latter
also traced, to check its span names against ``SPAN_NAMES``), the two
``benchmarks/bench.py service --profile smoke`` configs, one run under a
:class:`~repro.faults.FaultSchedule` and one with ``slo_degradation`` on
(it pages, so the degraded queue bound is exercised).  The quick-scale
``online-service`` and ``slo-ablation`` reports are pinned with every
other report in ``tests/data_report_digests.json``; the two are also
checked by name here, read from the session ``quick_run`` rather than
run a second time.
"""

import contextlib
import dataclasses
import io
import json
import re
from pathlib import Path

import pytest

from repro import telemetry
from repro.faults import FaultSchedule, SlowdownInterval
from repro.graph.generators import ldbc_like
from repro.service import SPAN_NAMES, PartitionedGraphService, ServiceConfig
from repro.service.cli import main as serve_sim

GOLDEN = json.loads((Path(__file__).parent / "data_service_digests.json")
                    .read_text(encoding="utf-8"))
REPORTS = json.loads((Path(__file__).parent / "data_report_digests.json")
                     .read_text(encoding="utf-8"))

#: A small drift-prone scenario (the one tests/test_service.py fires).
FIRING = ServiceConfig(
    num_partitions=4, epochs=6, epoch_duration=0.1, seed=11,
    mutations_per_epoch=300, query_bindings_per_epoch=24,
    drift_threshold=0.004, migration_cooldown_epochs=0,
    migration_budget=120, migration_batch_vertices=32,
    mutation_queue_bound=600, mutation_service_rate=300)


def _smoke_config(*, migration: bool) -> ServiceConfig:
    """The ``service`` benchmark suite's smoke-profile config."""
    return ServiceConfig(
        num_partitions=8, epochs=6, epoch_duration=0.2, seed=7,
        mutations_per_epoch=300, query_bindings_per_epoch=40,
        drift_threshold=0.01 if migration else None,
        migration_cooldown_epochs=1, migration_budget=125,
        mutation_queue_bound=600, mutation_service_rate=300)


@pytest.fixture(scope="module")
def firing_graph():
    return ldbc_like(num_vertices=800, avg_degree=10.0, seed=11)


def _serve_sim_digest(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert serve_sim(argv) == 0
    digest = re.search(r"^digest: (\w+)$", out.getvalue(), re.M)
    assert digest is not None
    return digest.group(1)


@pytest.mark.parametrize("argv", [[], ["--epochs", "10"]],
                         ids=["default", "epochs-10"])
def test_serve_sim_digest(argv):
    assert _serve_sim_digest(argv) == GOLDEN[" ".join(["serve-sim", *argv])]


def test_traced_serve_sim_emits_exactly_the_registered_spans():
    """The ``service.*`` spans a traced run emits are exactly
    ``SPAN_NAMES``, and tracing changes no draw."""
    with telemetry.recording() as tracer:
        digest = _serve_sim_digest(["--epochs", "10"])
    emitted = {span.name for span in tracer.spans
               if span.name.startswith("service.")}
    unregistered = sorted(emitted - set(SPAN_NAMES))
    never_emitted = sorted(set(SPAN_NAMES) - emitted)
    assert not unregistered and not never_emitted, (
        f"emitted but not in SPAN_NAMES: {unregistered}; "
        f"in SPAN_NAMES but never emitted: {never_emitted}")
    assert digest == GOLDEN["serve-sim --epochs 10"]


@pytest.mark.parametrize("label", ["no_migration", "migration"])
def test_bench_service_smoke_digest(label):
    graph = ldbc_like(num_vertices=1_000, avg_degree=10.0, seed=7)
    config = _smoke_config(migration=label == "migration")
    result = PartitionedGraphService(graph, config=config).run()
    assert result.digest() == GOLDEN[f"bench-service-smoke/{label}"]


def test_fault_schedule_digest(firing_graph):
    schedule = FaultSchedule(
        slowdowns=(SlowdownInterval(worker=0, start=0.0, end=0.6,
                                    factor=0.5),),
        seed=5)
    config = dataclasses.replace(FIRING, fault_schedule=schedule)
    result = PartitionedGraphService(firing_graph, config=config).run()
    assert result.digest() == GOLDEN["fault-schedule"]


def test_slo_degradation_digest(firing_graph):
    config = dataclasses.replace(FIRING, epochs=8, mutation_queue_bound=400,
                                 mutation_service_rate=150,
                                 slo_degradation=True)
    result = PartitionedGraphService(firing_graph, config=config).run()
    assert any(a.severity == "page" for a in result.alerts)
    assert result.digest() == GOLDEN["slo-degradation"]


@pytest.mark.parametrize("name", ["online-service", "slo-ablation"])
def test_quick_report_digest(name, quick_run):
    assert quick_run.result.digests[name] == REPORTS[name]
