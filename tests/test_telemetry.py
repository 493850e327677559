"""Unit tests for repro.telemetry: tracer, metrics, profiling, CLI."""

from __future__ import annotations

import json

import pytest

from repro import telemetry
from repro.errors import ConfigurationError
from repro.metrics.runtime import summarize
from repro.telemetry import (
    MetricsRegistry,
    SimClock,
    Span,
    Tracer,
    build_tree,
    hot_spans,
    read_jsonl,
    render_flamegraph,
    render_hot_spans,
    trace_summary,
)


class TestSimClock:
    def test_advance(self):
        clock = SimClock()
        assert clock.now == 0.0
        assert clock.advance(1.5) == 1.5
        assert clock.advance(0.5) == 2.0
        assert clock.now == 2.0

    def test_initial_value(self):
        assert SimClock(3.0).now == 3.0


class TestTracer:
    def test_disabled_records_nothing(self):
        tracer = Tracer(enabled=False)
        sid = tracer.begin("a", 0.0)
        assert sid == 0
        tracer.end(sid, 1.0)
        tracer.point("b", 0.5)
        assert tracer.num_spans == 0
        # ... but every invocation is counted (the overhead contract).
        assert tracer.calls == 4

    def test_begin_end_roundtrip(self):
        tracer = Tracer(enabled=True)
        sid = tracer.begin("op", 1.0, kind="x")
        tracer.end(sid, 3.0, status="ok")
        (span,) = tracer.spans
        assert span.name == "op"
        assert span.start == 1.0 and span.end == 3.0
        assert span.duration == 2.0
        assert span.attrs == {"kind": "x", "status": "ok"}

    def test_sequential_ids(self):
        tracer = Tracer(enabled=True)
        ids = [tracer.begin(f"s{i}", float(i), parent=None) for i in range(3)]
        assert ids == [1, 2, 3]

    def test_end_unknown_id_is_noop(self):
        tracer = Tracer(enabled=True)
        tracer.end(999, 1.0)
        assert tracer.num_spans == 0

    def test_point_is_zero_duration(self):
        tracer = Tracer(enabled=True)
        tracer.point("evt", 2.0, reason="because")
        (span,) = tracer.spans
        assert span.start == span.end == 2.0
        assert span.duration == 0.0

    def test_context_manager_nesting(self):
        tracer = Tracer(enabled=True)
        clock = SimClock()
        with tracer.span("outer", clock):
            clock.advance(1.0)
            with tracer.span("inner", clock):
                clock.advance(2.0)
            clock.advance(0.5)
        inner, outer = tracer.spans  # completion order: inner first
        assert inner.name == "inner" and outer.name == "outer"
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert outer.duration == pytest.approx(3.5)
        assert inner.duration == pytest.approx(2.0)

    def test_explicit_parent_overrides_stack(self):
        tracer = Tracer(enabled=True)
        clock = SimClock()
        with tracer.span("ctx", clock):
            rid = tracer.begin("detached", 0.0, parent=None)
            tracer.end(rid, 1.0)
        detached = tracer.spans[0]
        assert detached.parent_id is None

    def test_end_subtree_closes_open_descendants(self):
        tracer = Tracer(enabled=True)
        root = tracer.begin("root", 0.0, parent=None)
        child = tracer.begin("child", 1.0, parent=root)
        grand = tracer.begin("grand", 2.0, parent=child)
        other = tracer.begin("other", 0.0, parent=None)
        closed = tracer.end_subtree(root, 9.0, status="inflight")
        assert closed == 2
        names = [s.name for s in tracer.spans]
        # Deepest id first: children precede parents in the export.
        assert names == ["grand", "child"]
        assert all(s.end == 9.0 and s.attrs["status"] == "inflight"
                   for s in tracer.spans)
        # Unrelated root and the subtree root itself stay open.
        tracer.end(other, 1.0)
        tracer.end(root, 10.0)
        assert tracer.num_spans == 4

    def test_clear(self):
        tracer = Tracer(enabled=True)
        tracer.point("a", 0.0)
        tracer.clear()
        assert tracer.num_spans == 0
        assert tracer.begin("b", 0.0) == 1  # ids reset

    def test_bad_sample_every_raises(self):
        with pytest.raises(ValueError):
            Tracer(decision_sample_every=0)

    def test_numpy_attrs_are_jsonable(self):
        np = pytest.importorskip("numpy")
        tracer = Tracer(enabled=True)
        tracer.point("evt", 0.0, n=np.int64(3), x=np.float64(1.5),
                     arr=np.array([1, 2]))
        text = tracer.to_jsonl()
        record = json.loads(text.splitlines()[1])
        assert record["attrs"] == {"n": 3, "x": 1.5, "arr": [1, 2]}


class TestJsonlRoundTrip:
    def _sample_tracer(self):
        tracer = Tracer(enabled=True)
        clock = SimClock()
        with tracer.span("root", clock, kind="test"):
            clock.advance(1.0)
            tracer.point("leaf", clock.now, idx=1)
            clock.advance(1.0)
        return tracer

    def test_roundtrip_from_text(self):
        tracer = self._sample_tracer()
        spans = read_jsonl(tracer.to_jsonl())
        assert [s.name for s in spans] == ["leaf", "root"]
        assert spans[0].attrs == {"idx": 1}

    def test_roundtrip_from_file(self, tmp_path):
        tracer = self._sample_tracer()
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(path)
        spans = read_jsonl(path)
        assert len(spans) == tracer.num_spans

    def test_header_line_is_schema(self):
        header = self._sample_tracer().to_jsonl().splitlines()[0]
        assert json.loads(header) == {"schema": telemetry.SCHEMA_VERSION}

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError, match="unsupported trace schema"):
            read_jsonl('{"schema":999}\n')

    def test_identical_spans_identical_bytes(self):
        a, b = self._sample_tracer(), self._sample_tracer()
        assert a.to_jsonl() == b.to_jsonl()


class TestGlobalTracer:
    def test_default_disabled(self):
        assert telemetry.get_tracer().enabled is False

    def test_recording_swaps_and_restores(self):
        before = telemetry.get_tracer()
        with telemetry.recording(decision_sample_every=5) as tracer:
            assert telemetry.get_tracer() is tracer
            assert tracer.enabled and tracer.decision_sample_every == 5
        assert telemetry.get_tracer() is before

    def test_recording_restores_on_error(self):
        before = telemetry.get_tracer()
        with pytest.raises(RuntimeError):
            with telemetry.recording():
                raise RuntimeError("boom")
        assert telemetry.get_tracer() is before

    def test_configure_validates(self):
        with pytest.raises(ValueError):
            telemetry.configure(decision_sample_every=0)


class TestMetricsRegistry:
    def test_counter_get_or_create(self):
        reg = MetricsRegistry()
        reg.counter("db.timeouts").inc()
        reg.counter("db.timeouts").inc(2.0)
        assert reg.value("db.timeouts") == 3.0

    def test_gauge(self):
        reg = MetricsRegistry()
        reg.gauge("ingest.peak_bytes").set(7)
        reg.gauge("ingest.peak_bytes").set(4)
        assert reg.value("ingest.peak_bytes") == 4.0

    def test_absent_value_default(self):
        assert MetricsRegistry().value("nope", default=-1.0) == -1.0

    def test_type_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("db.retries")
        with pytest.raises(TypeError):
            reg.histogram("db.retries")
        with pytest.raises(TypeError):
            reg.gauge("db.retries")

    def test_unregistered_name_rejected_at_creation(self):
        reg = MetricsRegistry()
        for create in (reg.counter, reg.gauge, reg.histogram):
            with pytest.raises(ConfigurationError, match="'made.up.metric'"):
                create("made.up.metric")
        assert "made.up.metric" not in reg
        # A name under a wildcard entry (``cache.*``) is registered.
        reg.counter("cache.hits.partition").inc()
        assert reg.value("cache.hits.partition") == 1.0

    def test_histogram_summary_has_tail_percentiles(self):
        reg = MetricsRegistry()
        reg.histogram("db.query.latency_seconds").observe_many(range(1, 101))
        summary = reg.summary("db.query.latency_seconds")
        assert summary.p95 == pytest.approx(95.05)
        assert summary.p99 == pytest.approx(99.01)
        assert summary.maximum == 100.0
        assert reg.histogram("db.query.latency_seconds").count == 100

    def test_value_on_histogram_raises(self):
        reg = MetricsRegistry()
        reg.histogram("db.worker.busy_seconds").observe(1.0)
        with pytest.raises(TypeError):
            reg.value("db.worker.busy_seconds")

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("db.timeouts").inc(2)
        reg.gauge("ingest.peak_bytes").set(1.5)
        reg.histogram("db.worker.busy_seconds").observe_many([1.0, 2.0, 3.0])
        snap = reg.snapshot()
        assert snap["counters"] == {"db.timeouts": 2.0}
        assert snap["gauges"] == {"ingest.peak_bytes": 1.5}
        assert snap["histograms"]["db.worker.busy_seconds"]["count"] == 3
        assert {"min", "p25", "median", "p75", "p95", "p99", "max",
                "mean"} <= set(snap["histograms"]["db.worker.busy_seconds"])
        json.dumps(snap)  # JSON-ready

    def test_names_contains_len(self):
        reg = MetricsRegistry()
        reg.counter("db.timeouts")
        reg.counter("db.retries")
        assert reg.names() == ["db.retries", "db.timeouts"]
        assert "db.retries" in reg and "zz" not in reg
        assert len(reg) == 2


class TestDistributionSummaryTail:
    def test_p95_p99_from_summarize(self):
        summary = summarize(list(range(1, 1001)))
        assert summary.p95 == pytest.approx(950.05)
        assert summary.p99 == pytest.approx(990.01)

    def test_empty_summary_zeroes(self):
        summary = summarize([])
        assert summary.p95 == 0.0 and summary.p99 == 0.0


def _toy_spans():
    """root(0..10) -> [work(0..6) -> inner(0..2), idle(6..10)], evt point."""
    tracer = Tracer(enabled=True)
    root = tracer.begin("root", 0.0, parent=None)
    work = tracer.begin("work", 0.0, parent=root)
    inner = tracer.begin("inner", 0.0, parent=work)
    tracer.end(inner, 2.0)
    tracer.end(work, 6.0)
    idle = tracer.begin("idle", 6.0, parent=root)
    tracer.end(idle, 10.0)
    tracer.point("evt", 3.0, parent=root)
    tracer.end(root, 10.0)
    return tracer.spans


class TestProfiling:
    def test_build_tree(self):
        roots, children = build_tree(_toy_spans())
        assert [r.name for r in roots] == ["root"]
        kids = [s.name for s in children[roots[0].span_id]]
        assert kids == ["work", "evt", "idle"]  # (start, id) order

    def test_orphan_parent_becomes_root(self):
        spans = [Span(5, 99, "lost", 0.0, 1.0)]
        roots, _ = build_tree(spans)
        assert [r.name for r in roots] == ["lost"]

    def test_flamegraph_renders_all_spans(self):
        text = render_flamegraph(_toy_spans())
        for name in ("root", "work", "inner", "idle", "evt"):
            assert name in text
        # Nesting is encoded as indentation.
        lines = {ln.split()[0]: ln for ln in text.splitlines()}
        assert text.splitlines()[0].startswith("root")
        assert lines["inner"].startswith("    inner") or "  inner" in text

    def test_flamegraph_max_depth(self):
        text = render_flamegraph(_toy_spans(), max_depth=2)
        assert "work" in text and "inner" not in text

    def test_flamegraph_min_fraction_prunes_and_counts(self):
        text = render_flamegraph(_toy_spans(), min_fraction=0.3)
        assert "inner" not in text
        assert "span(s) below 30%" in text

    def test_flamegraph_empty(self):
        assert render_flamegraph([]) == "(empty trace)"

    def test_hot_spans_self_time(self):
        rows = {r["name"]: r for r in hot_spans(_toy_spans())}
        # root: 10 total - (6 work + 4 idle + 0 evt) = 0 self.
        assert rows["root"]["self_seconds"] == pytest.approx(0.0)
        # work: 6 total - 2 inner = 4 self.
        assert rows["work"]["self_seconds"] == pytest.approx(4.0)
        assert rows["work"]["total_seconds"] == pytest.approx(6.0)
        # Ranked by self time: work(4) and idle(4) lead.
        ranked = hot_spans(_toy_spans(), top=2)
        assert {r["name"] for r in ranked} == {"work", "idle"}

    def test_render_hot_spans_table(self):
        text = render_hot_spans(_toy_spans(), top=3)
        assert "self (s)" in text and "work" in text

    def test_trace_summary(self):
        summary = trace_summary(_toy_spans())
        assert summary["spans"] == 5
        assert summary["roots"] == 1
        assert summary["names"] == 5
        assert summary["total_seconds"] == pytest.approx(10.0)


class TestTraceCli:
    @pytest.fixture()
    def trace_file(self, tmp_path):
        tracer = Tracer(enabled=True)
        clock = SimClock()
        with tracer.span("root", clock):
            clock.advance(2.0)
            tracer.point("evt", clock.now)
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(path)
        return path

    def test_text_report(self, trace_file, capsys):
        from repro.tools.trace_cli import main
        assert main([str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "spans" in out and "root" in out and "self (s)" in out

    def test_json_report(self, trace_file, capsys):
        from repro.tools.trace_cli import main
        assert main([str(trace_file), "--json", "--top", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["spans"] == 2
        assert len(payload["hot_spans"]) == 1

    def test_missing_file_fails(self, tmp_path, capsys):
        from repro.tools.trace_cli import main
        assert main([str(tmp_path / "nope.jsonl")]) == 1
        assert "cannot read trace" in capsys.readouterr().err

    def test_empty_trace_fails(self, tmp_path, capsys):
        from repro.tools.trace_cli import main
        path = tmp_path / "empty.jsonl"
        path.write_text('{"schema":1}\n')
        assert main([str(path)]) == 1
        assert "no completed spans" in capsys.readouterr().err

    def test_module_dispatch(self, trace_file, capsys):
        from repro.experiments.cli import main
        assert main(["trace", str(trace_file), "--no-flame"]) == 0
        assert "spans" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--top", "--max-depth"])
    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_counts_below_one_are_usage_errors(self, trace_file, capsys,
                                               flag, value):
        from repro.tools.trace_cli import main
        with pytest.raises(SystemExit) as exit_info:
            main([str(trace_file), flag, value])
        assert exit_info.value.code == 2
        assert f"argument {flag}: must be >= 1" in capsys.readouterr().err
