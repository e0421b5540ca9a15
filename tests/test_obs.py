"""Unit tests for repro.obs: tracer, metrics registry, exporters."""

import json

import pytest

from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    Tracer,
    chrome_trace,
    flame_summary,
    get_default_metrics,
    prometheus_text,
    series_name,
    set_default_metrics,
    span_jsonl_lines,
    validate_chrome_trace,
    write_chrome_trace,
    write_span_jsonl,
)


class TestTracer:
    def test_span_records_names_and_nesting(self):
        t = Tracer()
        with t.span("outer"):
            with t.span("inner"):
                pass
        records = t.records()
        assert [r.name for r in records] == ["inner", "outer"]
        inner, outer = records
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_span_attrs(self):
        t = Tracer()
        with t.span("s", level=2) as span:
            span.set_attribute("gain", 1.5)
            span.set_attributes(cost=0.2, invoked=True)
        (rec,) = t.records()
        assert rec.attrs == {"level": 2, "gain": 1.5, "cost": 0.2,
                             "invoked": True}

    def test_bound_clock_measures_simulated_time(self):
        clock = {"now": 10.0}
        t = Tracer(clock=lambda: clock["now"])
        with t.span("s"):
            clock["now"] = 12.5
        (rec,) = t.records()
        assert rec.sim_start == 10.0
        assert rec.sim_end == 12.5
        assert rec.sim_elapsed == pytest.approx(2.5)

    def test_wall_clock_advances(self):
        t = Tracer()
        with t.span("s"):
            pass
        (rec,) = t.records()
        assert rec.wall_end >= rec.wall_start

    def test_disabled_tracer_records_nothing(self):
        t = Tracer(enabled=False)
        with t.span("s", foo=1) as span:
            span.set_attribute("bar", 2)  # must be a silent no-op
        assert t.record_count == 0
        assert t.records() == []

    def test_disabled_span_is_shared_singleton(self):
        t = Tracer(enabled=False)
        assert t.span("a") is t.span("b")
        assert NULL_TRACER.span("x") is t.span("a")

    def test_exception_recorded_and_propagated(self):
        t = Tracer()
        with pytest.raises(RuntimeError):
            with t.span("boom"):
                raise RuntimeError("no")
        (rec,) = t.records()
        assert rec.attrs["error"] == "RuntimeError"

    def test_extend_merges_foreign_records(self):
        a, b = Tracer(track="a"), Tracer(track="b")
        with a.span("x"):
            pass
        with b.span("y"):
            pass
        a.extend(b.records())
        assert {r.track for r in a.records()} == {"a", "b"}

    def test_clear(self):
        t = Tracer()
        with t.span("s"):
            pass
        t.clear()
        assert t.record_count == 0


class TestMetricsRegistry:
    def test_counter(self):
        m = MetricsRegistry()
        m.counter("dlb.decisions").inc()
        m.counter("dlb.decisions").inc(2)
        assert m.snapshot()["counters"]["dlb.decisions"] == 3

    def test_counter_rejects_negative(self):
        m = MetricsRegistry()
        with pytest.raises(ValueError):
            m.counter("c").inc(-1)

    def test_gauge(self):
        m = MetricsRegistry()
        g = m.gauge("run.total_time")
        g.set(4.0)
        g.inc(1.0)
        assert m.snapshot()["gauges"]["run.total_time"] == pytest.approx(5.0)

    def test_histogram_summary(self):
        m = MetricsRegistry()
        h = m.histogram("exec.task_wall_seconds")
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        summ = m.snapshot()["histograms"]["exec.task_wall_seconds"]
        assert summ["count"] == 3
        assert summ["min"] == 1.0
        assert summ["max"] == 3.0
        assert summ["mean"] == pytest.approx(2.0)

    def test_labels_make_distinct_series(self):
        m = MetricsRegistry()
        m.counter("comm.remote_bytes", kind="ghost").inc(10)
        m.counter("comm.remote_bytes", kind="migration").inc(5)
        snap = m.snapshot()["counters"]
        assert snap["comm.remote_bytes{kind=ghost}"] == 10
        assert snap["comm.remote_bytes{kind=migration}"] == 5

    def test_series_name_sorts_labels(self):
        assert series_name("m", {"b": 1, "a": 2}) == "m{a=2,b=1}"

    def test_kind_conflict_rejected(self):
        m = MetricsRegistry()
        m.counter("x")
        with pytest.raises(ValueError):
            m.gauge("x")

    def test_same_series_returns_same_instrument(self):
        m = MetricsRegistry()
        assert m.counter("c", a=1) is m.counter("c", a=1)

    def test_default_registry_swap(self):
        fresh = MetricsRegistry()
        previous = set_default_metrics(fresh)
        try:
            assert get_default_metrics() is fresh
        finally:
            set_default_metrics(previous)


class TestPrometheusText:
    def test_empty_registry_renders_empty(self):
        assert prometheus_text(MetricsRegistry()) == ""

    def test_counter_gauge_histogram_forms(self):
        m = MetricsRegistry()
        m.counter("serve.jobs_submitted").inc(3)
        m.gauge("serve.queue_depth").set(2)
        h = m.histogram("serve.job_wall_seconds")
        h.observe(0.5)
        h.observe(1.5)
        text = prometheus_text(m)
        assert "# TYPE serve_jobs_submitted_total counter" in text
        assert "serve_jobs_submitted_total 3" in text
        assert "# TYPE serve_queue_depth gauge" in text
        assert "serve_queue_depth 2" in text
        assert "# TYPE serve_job_wall_seconds summary" in text
        assert "serve_job_wall_seconds_count 2" in text
        assert "serve_job_wall_seconds_sum 2" in text
        assert "serve_job_wall_seconds_min 0.5" in text
        assert "serve_job_wall_seconds_max 1.5" in text
        assert text.endswith("\n")

    def test_labels_render_in_braces(self):
        m = MetricsRegistry()
        m.counter("serve.jobs_completed", status="done").inc()
        m.counter("serve.jobs_completed", status="failed").inc(2)
        text = prometheus_text(m)
        assert 'serve_jobs_completed_total{status="done"} 1' in text
        assert 'serve_jobs_completed_total{status="failed"} 2' in text
        # one TYPE header for the metric, not one per labeled series
        assert text.count("# TYPE serve_jobs_completed_total") == 1

    def test_output_is_deterministic(self):
        def build():
            m = MetricsRegistry()
            m.counter("b.second").inc()
            m.counter("a.first", k="v").inc()
            m.gauge("c.third").set(1)
            return m

        assert prometheus_text(build()) == prometheus_text(build())
        lines = prometheus_text(build()).splitlines()
        assert lines[0].startswith("# TYPE a_first")


def _sample_records():
    clock = {"now": 0.0}
    t = Tracer(clock=lambda: clock["now"], track="sample")
    with t.span("run"):
        clock["now"] = 1.0
        with t.span("solve", level=0):
            clock["now"] = 3.0
        with t.span("solve", level=0):
            clock["now"] = 4.0
    return t.records()


class TestExporters:
    def test_chrome_trace_shape(self):
        payload = chrome_trace(_sample_records())
        assert validate_chrome_trace(payload) == []
        xs = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in xs} == {"run", "solve"}
        run = next(e for e in xs if e["name"] == "run")
        assert run["dur"] == pytest.approx(4.0 * 1e6)

    def test_chrome_trace_file_roundtrip(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(_sample_records(), path)
        payload = json.loads(path.read_text())
        assert validate_chrome_trace(payload) == []

    def test_span_jsonl(self, tmp_path):
        lines = list(span_jsonl_lines(_sample_records()))
        assert len(lines) == 3
        for line in lines:
            parsed = json.loads(line)
            assert {"name", "track", "sim_start", "sim_end"} <= set(parsed)
        path = tmp_path / "spans.jsonl"
        write_span_jsonl(_sample_records(), path)
        assert len(path.read_text().splitlines()) == 3

    def test_flame_summary_totals_and_calls(self):
        out = flame_summary(_sample_records())
        assert "run" in out and "solve" in out
        assert "calls     2" in out  # the two solve spans aggregate

    def test_flame_summary_wall_clock(self):
        out = flame_summary(_sample_records(), clock="wall")
        assert "host clock" in out

    def test_validate_rejects_malformed(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": [{}]}) != []
        bad = {"traceEvents": [{"name": "x", "ph": "X", "pid": 1, "tid": 1,
                                "ts": -5.0, "dur": 1.0}]}
        assert validate_chrome_trace(bad) != []


class TestTimelineInitRow:
    def test_events_before_first_decision_get_init_row(self):
        from repro.distsys.events import (
            ComputeEvent,
            EventLog,
            GlobalDecisionEvent,
        )
        from repro.harness import render_step_timeline, step_timeline

        log = EventLog()
        log.record(ComputeEvent(time=0.0, level=0, seq=0, elapsed=2.0,
                                max_load=1.0, total_load=1.0))
        log.record(GlobalDecisionEvent(time=2.0, gain=0.0, cost=0.0,
                                       gamma=2.0, imbalance_detected=False,
                                       invoked=False))
        log.record(ComputeEvent(time=2.0, level=0, seq=1, elapsed=3.0,
                                max_load=1.0, total_load=1.0))
        steps = step_timeline(log)
        assert [s["step"] for s in steps] == [-1.0, 0.0]
        assert steps[0]["compute"] == pytest.approx(2.0)
        assert steps[1]["compute"] == pytest.approx(3.0)
        assert "init" in render_step_timeline(log)

    def test_no_decisions_all_events_in_init_row(self):
        from repro.harness import ExperimentConfig, run_experiment, step_timeline

        r = run_experiment(ExperimentConfig(procs_per_group=1, steps=2),
                           "parallel")
        steps = step_timeline(r.events)
        assert [s["step"] for s in steps] == [-1.0]
        assert steps[0]["compute"] == pytest.approx(r.compute_time)

    def test_boundary_at_index_zero_has_no_init_row(self):
        from repro.harness import ExperimentConfig, run_experiment, step_timeline

        r = run_experiment(ExperimentConfig(procs_per_group=1, steps=2),
                           "distributed")
        steps = step_timeline(r.events)
        assert [s["step"] for s in steps] == [0.0, 1.0]
