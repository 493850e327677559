"""End-to-end benchmark: cold run-all workloads and the live service.

Usage, from the repository root::

    python benchmarks/e2e/run.py                 # 5 interleaved rounds, then one traced run each
    python benchmarks/e2e/run.py --smoke         # 1 round of shrunken workloads
    python benchmarks/e2e/run.py --workload online-queries --seed 3 --seconds 30 --trace 0
    python benchmarks/e2e/run.py --compare PARENT.json CHANGE.json

Every repetition is a fresh process running ``workloads.py`` with an
empty temporary artifact cache and a hermetic environment.  The
workloads and metrics are the ones ``BENCHMARK.json`` declares; README.md
says what each one measures and why it was chosen.

* The default form prints each end-to-end metric's median, quartiles and
  sample count, then the per-layer table of the traced runs, and writes
  the raw per-repetition records to ``BENCH_e2e.json``.
* ``--workload`` measures one workload for ``--seconds`` and prints one
  JSON object as the last line of its output: the end-to-end metrics
  with ``--trace 0``, the per-layer metrics with ``--trace 1``.
* ``--compare`` judges a change against its parent from two
  ``BENCH_e2e.json`` files.

The exit status is 1 when a correctness check fails, or when
``--compare`` finds a metric that got worse.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
CHILD = HERE / "workloads.py"
DEFAULT_OUT = ROOT / "benchmarks" / "output"

#: Settings that would make a child warm, sanitized or rescaled; the
#: child passes its scale explicitly.
STRIPPED_ENV = ("REPRO_SANITIZE", "REPRO_CACHE_DIR", "REPRO_SCALE")
#: A --workload run reports the median of this many set-ups.
SETUP_SAMPLES = 5
#: A --workload run stops its children past this many seconds.
RUN_LIMIT_S = 170.0
#: Per-child limit in the full form.
CHILD_LIMIT_S = 900.0


def emit(text: str = "") -> None:
    """Results go to stdout; the --workload form's last line is its JSON."""
    sys.stdout.write(text + "\n")


def log(message: str) -> None:
    sys.stderr.write(f"[e2e] {message}\n")
    sys.stderr.flush()


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------
def run_child(request: dict, *, timeout: float, out_dir: Path) -> dict | None:
    """Run one repetition in a fresh process; its record, or None on failure."""
    out_dir.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="e2e-work-", dir=out_dir))
    result = work / "result.json"
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
    # TMPDIR keeps the ingest layer's spilled streams inside the checkout.
    env.update(PYTHONPATH=str(ROOT / "src"), TMPDIR=str(work))
    request = {**request, "cache_dir": str(work / "cache"),
               "result": str(result), "spawned_at": time.time()}
    label = f"{request['workload']} ({request['mode']})"
    try:
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), json.dumps(request)], cwd=ROOT,
            env=env, stdout=sys.stderr, start_new_session=True)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            log(f"{label} timed out after {timeout:.0f} s")
        finally:
            # Pool workers live in the child's process group.
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        if proc.returncode != 0 or not result.exists():
            log(f"{label} failed (exit status {proc.returncode})")
            return None
        return json.loads(result.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)


def tally(records: list) -> list:
    """``[name, ok]`` for every operation of *records* (a crashed
    repetition is one failed operation), plus the check that every
    repetition produced the same report digests."""
    operations = []
    for record in records:
        operations += (record["operations"] if record is not None
                       else [["repetition", False]])
    digests = [r["digests"] for r in records if r is not None]
    operations.append(["digests agree across repetitions",
                       all(d == digests[0] for d in digests)])
    return operations


def quartiles(values) -> tuple:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` cuts them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def end_to_end(spec: dict, records: list, setups: list) -> dict:
    """Median, quartiles and sample count of each end-to-end metric over
    the untraced repetitions (set-up time over *setups*)."""
    summary = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        samples = setups if name == "setup_s" else [r[name] for r in records]
        q1, median, q3 = quartiles(samples)
        summary[name] = {"median": median, "q1": q1, "q3": q3, "n": len(samples),
                         "unit": metric["unit"]}
    return summary


def per_layer(traced: dict, untraced: list) -> dict:
    """The traced run's per-layer metrics, with its overhead over the
    median of the untraced runs that had its serial schedule."""
    baseline = statistics.median(r["wall_s"] for r in untraced if r["jobs"] == 1)
    return {**traced["layers"], "trace.overhead": traced["wall_s"] / baseline - 1.0}


# ----------------------------------------------------------------------
# --workload: one workload for --seconds
# ----------------------------------------------------------------------
def measure(spec: dict, args) -> int:
    started = time.monotonic()
    deadline, limit = started + args.seconds, started + RUN_LIMIT_S
    base = {"workload": args.workload, "seed": args.seed, "smoke": args.smoke,
            "serial": bool(args.trace),
            "trace_path": str(args.out_dir / f"e2e-trace-{args.workload}.jsonl")}

    def child(mode: str) -> dict | None:
        return run_child({**base, "mode": mode}, out_dir=args.out_dir,
                         timeout=max(1.0, limit - time.monotonic()))

    # The first process compiles bytecode and fills the page cache, which
    # users do not pay on every run: it is not measured.
    if child("setup") is None:
        return 1
    setup_cost = time.monotonic() - started
    traced = child("trace") if args.trace else None
    reserve = 0.0 if args.trace else (SETUP_SAMPLES - 1) * setup_cost
    records = []
    while True:
        began = time.monotonic()
        records.append(child("run"))
        took = time.monotonic() - began
        if records[-1] is None or time.monotonic() + took + reserve > deadline:
            break
    done = [r for r in records if r is not None]
    setups = [r["setup_s"] for r in done]
    while not args.trace and len(setups) < SETUP_SAMPLES:
        extra = child("setup")
        if extra is None:
            break
        setups.append(extra["setup_s"])

    operations = tally(records + ([traced] if args.trace else []))
    if not done or (args.trace and traced is None):
        return 1
    if args.trace:
        values, declared = per_layer(traced, done), spec["per_layer"]
    else:
        values = {name: s["median"]
                  for name, s in end_to_end(spec, done, setups).items()}
        declared = spec["end_to_end"]
    failed = sum(not ok for _, ok in operations)
    emit(json.dumps({
        "correct": failed == 0, "attempted": len(operations), "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0 if failed == 0 else 1


# ----------------------------------------------------------------------
# Default form: interleaved rounds, traced runs, BENCH_e2e.json
# ----------------------------------------------------------------------
def table(headers: list, rows: list) -> str:
    cells = [[str(c) for c in row] for row in rows]
    widths = [max([len(h), *(len(row[i]) for row in cells)])
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines += ["  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in cells]
    return "\n".join(lines)


def full(spec: dict, args) -> int:
    names = [w["name"] for w in spec["workloads"]]
    repeats = args.repeats if args.repeats is not None else (1 if args.smoke else 5)

    def child(workload: str, mode: str, serial: bool = False) -> dict | None:
        return run_child(
            {"workload": workload, "mode": mode, "seed": args.seed,
             "smoke": args.smoke, "serial": serial,
             "trace_path": str(args.out_dir / f"e2e-trace-{workload}.jsonl")},
            timeout=CHILD_LIMIT_S, out_dir=args.out_dir)

    if child(names[0], "setup") is None:  # bytecode and page cache, unmeasured
        return 1
    repetitions = []
    for round_ in range(repeats):
        shift = round_ % len(names)
        for workload in names[shift:] + names[:shift]:
            log(f"round {round_ + 1}/{repeats}: {workload}")
            repetitions.append({"workload": workload, "round": round_,
                                "record": child(workload, "run")})
    traces = {}
    for workload in names:
        log(f"traced run: {workload}")
        # Plus one untraced serial run, so that a workload whose rounds
        # use workers still has a baseline for the trace overhead.
        traces[workload] = (child(workload, "trace"),
                            child(workload, "run", serial=True))

    summary, failures = {}, 0
    for workload in names:
        records = [r["record"] for r in repetitions if r["workload"] == workload]
        traced, serial = traces[workload]
        operations = tally(records + [traced, serial])
        failed = sum(not ok for _, ok in operations)
        failures += failed
        done = [r for r in records if r is not None]
        summary[workload] = {
            "attempted": len(operations), "failed": failed,
            "failed_share": failed / len(operations),
            "end_to_end": (end_to_end(spec, done, [r["setup_s"] for r in done])
                           if done else {}),
            "layers": (per_layer(traced, done + [serial])
                       if traced is not None and serial is not None else {})}

    emit("End-to-end metrics over the untraced repetitions "
         "(failed_share: n is the operations attempted)")
    emit(table(
        ["workload", "metric", "unit", "median", "q1", "q3", "n"],
        [[w, name, s["unit"], f"{s['median']:.4g}", f"{s['q1']:.4g}",
          f"{s['q3']:.4g}", s["n"]]
         for w, entry in summary.items()
         for name, s in entry["end_to_end"].items()]
        + [[w, "failed_share", "ratio", f"{entry['failed_share']:.4g}", "", "",
            entry["attempted"]]
           for w, entry in summary.items()]))
    emit()
    emit("Per-layer metrics of one traced serial repetition per workload")
    emit(table(
        ["metric", "unit", *names],
        [[m["name"], m["unit"],
          *(f"{summary[w]['layers'].get(m['name'], float('nan')):.4g}"
            for w in names)]
         for m in spec["per_layer"]]))

    args.out_dir.mkdir(parents=True, exist_ok=True)
    out = args.out_dir / "BENCH_e2e.json"
    out.write_text(json.dumps({
        "schema": 1, "seed": args.seed, "smoke": args.smoke, "repeats": repeats,
        "repetitions": repetitions, "summary": summary}, indent=1) + "\n")
    log(f"wrote {out}")
    return 0 if failures == 0 else 1


# ----------------------------------------------------------------------
# --compare PARENT.json CHANGE.json
# ----------------------------------------------------------------------
def flatten(doc: dict, metrics) -> list:
    """The raw per-repetition records as one row per (workload, round,
    metric): the single flattening step every comparison reads."""
    return [{"workload": rep["workload"], "round": rep["round"],
             "metric": name, "value": rep["record"][name]}
            for rep in doc["repetitions"] if rep["record"] is not None
            for name in metrics]


def judge(parent: dict, change: dict, bound: float, lower_is_better: bool) -> tuple:
    """``(win share, verdict)`` of *change* against *parent* (each
    ``{round: value}``), by the choosing-metrics rules: a gain needs nine
    wins in ten pairs and a median shift wider than the parent's own
    quartile spread; a spread wider than the bound is unresolved unless
    every change run beats every parent run."""
    sign = 1.0 if lower_is_better else -1.0
    pairs = [(parent[r], change[r]) for r in parent if r in change]
    wins = sum(sign * (c - p) < 0 for p, c in pairs) / len(pairs) if pairs else 0.0
    q1, parent_median, q3 = quartiles(parent.values())
    spread = (q3 - q1) / parent_median
    gain = sign * (parent_median - statistics.median(change.values())) / parent_median
    if wins >= 0.9 and gain > spread:
        return wins, "better"
    if -gain > bound:
        return wins, "worse"
    if spread > bound and not all(sign * (c - p) < 0 for c in change.values()
                                  for p in parent.values()):
        return wins, "unresolved"
    return wins, "unchanged"


def compare(spec: dict, parent_path: Path, change_path: Path) -> int:
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    sides = []
    for path in (parent_path, change_path):
        grouped: dict = {}
        for row in flatten(json.loads(path.read_text()), metrics):
            grouped.setdefault((row["workload"], row["metric"]), {})[row["round"]] = row["value"]
        sides.append(grouped)
    parent, change = sides

    def describe(values: dict) -> str:
        q1, median, q3 = quartiles(values.values())
        return f"{median:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}"

    rows, worse = [], 0
    for (workload, name), before in parent.items():
        after = change.get((workload, name))
        if not after:
            rows.append([workload, name, metrics[name]["unit"], describe(before),
                         "missing", "", "unresolved"])
            continue
        wins, verdict = judge(before, after, metrics[name]["bound"],
                              metrics[name]["better"] == "lower")
        worse += verdict == "worse"
        rows.append([workload, name, metrics[name]["unit"], describe(before),
                     describe(after), f"{wins:.0%}", verdict])
    emit(table(["workload", "metric", "unit", "parent median [q1, q3]",
                "change median [q1, q3]", "wins", "verdict"], rows))
    return 1 if worse else 0


def main(argv=None) -> int:
    spec = json.loads(SPEC_PATH.read_text())
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                        help="measure one workload and print one JSON line")
    parser.add_argument("--seed", type=int, default=11,
                        help="seed of the service-churn inputs (default 11)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measuring time of a --workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="--workload: report per-layer metrics of a traced run")
    parser.add_argument("--repeats", type=int,
                        help="rounds of the full form (default 5; 1 with --smoke)")
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every workload to seconds")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("PARENT", "CHANGE"),
                        help="judge two BENCH_e2e.json files")
    parser.add_argument("--out-dir", type=Path, default=DEFAULT_OUT,
                        help="where traces and BENCH_e2e.json go")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(spec, *args.compare)
    if not (ROOT / "src" / "repro").is_dir():
        log(f"no product sources at {ROOT / 'src' / 'repro'}")
        return 2
    return measure(spec, args) if args.workload else full(spec, args)


if __name__ == "__main__":
    sys.exit(main())
