"""``python -m repro health`` — the service health dashboard.

Runs the online partitioning service scenario (the same knobs as
``serve-sim``) with SLO sampling on and renders what an SRE console
would show, entirely from deterministic simulated-time series:

* a per-epoch sparkline table of the key metric series (latency, drift,
  backlog, shed/failed counts);
* the SLO table — objective, budget consumed, worst burn rates, pages
  and tickets — with a ``BREACH`` marker when a budget is spent;
* the ordered alert log (fire/resolve transitions in simulated time).

``--json`` emits the canonical health payload (samples + alerts + SLO
state + digests); ``--out DIR`` additionally writes the OpenMetrics and
JSONL export artifacts CI uploads.  Same seed → byte-identical output,
so the dashboard itself is regression-testable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.service.cli import add_scenario_arguments, build_config
from repro.service.core import PartitionedGraphService, ServiceResult
from repro.telemetry.export import (
    records_to_jsonl,
    samples_to_jsonl,
    to_openmetrics,
    write_text,
)

#: Unicode eighth-blocks, the classic terminal sparkline alphabet.
SPARK_CHARS = "▁▂▃▄▅▆▇█"

#: The dashboard's headline series: (label, metric name, format).
DASHBOARD_SERIES = (
    ("p99 latency (ms)", "service.epoch.p99_latency_ms", "{:.1f}"),
    ("mean latency (ms)", "service.epoch.mean_latency_ms", "{:.1f}"),
    ("drift", "service.epoch.drift", "{:.4f}"),
    ("edge cut", "service.epoch.edge_cut", "{:.3f}"),
    ("pending backlog", "service.epoch.pending_mutations", "{:.0f}"),
    ("shed writes", "service.epoch.shed_writes", "{:.0f}"),
    ("failed queries", "service.epoch.failed_queries", "{:.0f}"),
    ("completed queries", "service.epoch.completed_queries", "{:.0f}"),
)


def sparkline(values) -> str:
    """Render *values* as one eighth-block character per point."""
    values = [float(v) for v in values]
    if not values:
        return ""
    low, high = min(values), max(values)
    if high <= low:
        return SPARK_CHARS[0] * len(values)
    scale = (len(SPARK_CHARS) - 1) / (high - low)
    return "".join(SPARK_CHARS[int((v - low) * scale)] for v in values)


def ingest_health() -> dict | None:
    """Process-global out-of-core ingest gauges, or None before any run.

    The ingest subsystem (``docs/scaling.md``) publishes its footprint to
    the shared registry — ``ingest.peak_bytes`` is the peak tracked
    resident state of the last sharded run.  Returned only when an
    ingest actually ran in this process, so dashboards that never touch
    the subsystem stay byte-identical across runs.
    """
    from repro import telemetry

    registry = telemetry.get_metrics()
    if "ingest.peak_bytes" not in registry:
        return None
    return {
        "peak_bytes": int(registry.value("ingest.peak_bytes")),
        "edges": int(registry.value("ingest.edges")),
        "sync_rounds": int(registry.value("ingest.sync_rounds")),
        "spilled_edges": int(registry.value("ingest.spilled_edges")),
    }


def render_dashboard(result: ServiceResult) -> str:
    """The full terminal dashboard for one service run."""
    lines: list[str] = []
    samples = result.samples
    if not samples:
        return ("no samples recorded — the run had slo_sampling disabled; "
                "re-run with sampling on to get a dashboard")

    lines.append(f"service health — {len(samples)} epochs, "
                 f"t=[{samples[0].time:g}, {samples[-1].time:g}]s simulated")
    lines.append("")
    label_width = max(len(label) for label, _, _ in DASHBOARD_SERIES)
    for label, metric, fmt in DASHBOARD_SERIES:
        series = [s.value(metric) for s in samples]
        last = fmt.format(series[-1])
        lines.append(f"{label:<{label_width}}  {sparkline(series)}  "
                     f"last={last}  max={fmt.format(max(series))}")

    slo_state = result.slo_status or {"slos": []}
    if slo_state["slos"]:
        lines.append("")
        lines.append("SLO                  objective  budget used  "
                     "worst fast/slow burn  pages  tickets")
        for status in slo_state["slos"]:
            slo = status["slo"]
            consumed = status["consumed"]
            marker = "  BREACH" if status["breached"] else ""
            worst_fast = max(status["burn_fast"], default=0.0)
            worst_slow = max(status["burn_slow"], default=0.0)
            lines.append(
                f"{slo['name']:<20} {slo['objective']:>9.3f}  "
                f"{consumed:>10.1%}  "
                f"{worst_fast:>9.1f}/{worst_slow:<9.1f}  "
                f"{status['pages']:>5d}  {status['tickets']:>7d}"
                f"{marker}")

    lines.append("")
    if result.alerts:
        lines.append("alert log:")
        for alert in result.alerts:
            lines.append(
                f"  epoch {alert.epoch:3d} t={alert.time:8.2f}s  "
                f"[{alert.severity:>6}] {alert.kind:<7} {alert.slo}  "
                f"burn fast/slow {alert.burn_fast:.1f}/{alert.burn_slow:.1f}"
                f"  budget {alert.budget_consumed:.0%}")
    else:
        lines.append("alert log: empty — every objective held")
    ingest = ingest_health()
    if ingest is not None:
        lines.append("")
        lines.append(f"ingest: peak {ingest['peak_bytes']:,} bytes resident "
                     f"over {ingest['edges']:,} edges "
                     f"({ingest['sync_rounds']} sync rounds, "
                     f"{ingest['spilled_edges']:,} edges spilled)")

    lines.append("")
    lines.append(f"timeline digest:      {result.digest()}")
    lines.append(f"observability digest: {result.observability_digest()}")
    return "\n".join(lines)


def health_payload(result: ServiceResult) -> dict:
    """The canonical machine-readable health document."""
    payload = {
        "schema": "repro.health/1",
        "observability": result.observability(),
        "timeline_digest": result.digest(),
        "observability_digest": result.observability_digest(),
    }
    ingest = ingest_health()
    if ingest is not None:
        payload["ingest"] = ingest
    return payload


def write_artifacts(result: ServiceResult, out_dir: str) -> list[str]:
    """Write the CI export artifacts; returns the paths written."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []

    def emit(name: str, payload: str) -> None:
        path = os.path.join(out_dir, name)
        write_text(path, payload)
        paths.append(path)

    if result.samples:
        emit("metrics.openmetrics", to_openmetrics(result.samples[-1]))
        emit("samples.jsonl", samples_to_jsonl(result.samples))
    emit("alerts.jsonl", records_to_jsonl(result.alerts))
    emit("health.json", json.dumps(health_payload(result), indent=2,
                                   sort_keys=True) + "\n")
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro health",
        description="Run the online service scenario and render the SLO "
                    "health dashboard (sparklines, budget burn, alert "
                    "log).  Same seed, same bytes.")
    add_scenario_arguments(parser)
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the canonical health JSON to PATH "
                             "('-' for stdout)")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="write OpenMetrics/JSONL/health artifacts "
                             "into DIR")
    args = parser.parse_args(argv)

    from repro.errors import ConfigurationError
    from repro.graph.generators import ldbc_like

    try:
        config = build_config(args)
        graph = ldbc_like(num_vertices=args.vertices,
                          avg_degree=args.avg_degree, seed=args.seed)
    except ConfigurationError as error:
        print(f"health: {error}", file=sys.stderr)
        return 2
    result = PartitionedGraphService(graph, config=config).run()

    if args.json:
        payload = json.dumps(health_payload(result), indent=2,
                             sort_keys=True)
        if args.json == "-":
            # stdout stays pure JSON for piping; dashboard to stderr.
            print(payload)
            print(render_dashboard(result), file=sys.stderr)
            if args.out:
                for path in write_artifacts(result, args.out):
                    print(f"[wrote {path}]", file=sys.stderr)
            return 0
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        print(f"[health JSON written to {args.json}]")
    if args.out:
        for path in write_artifacts(result, args.out):
            print(f"[wrote {path}]")
    print(render_dashboard(result))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
