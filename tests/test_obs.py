"""Unit tests for the ``repro.obs`` instrumentation core.

Covers the metrics instruments (counter/gauge/histogram/timer), the
registry snapshot + JSONL round trip, span tracing and its Chrome-trace
export, the observer lifecycle (including restore-on-exit nesting), the
text report, and the dashboard generator.
"""

import json

import pytest

from repro import obs
from repro.obs.dashboard import bar_chart, build_dashboard, render_dashboard
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    read_jsonl,
)
from repro.obs.report import derived_rates, render_report
from repro.obs.tracing import SIM_PID, WALL_PID, SpanTracer, _stable_tid


class TestInstruments:
    def test_counter_increments(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert c.snapshot() == {"name": "x", "type": "counter", "value": 5}

    def test_gauge_set_and_high_water(self):
        g = Gauge("x")
        g.set(3.0)
        g.high_water(2.0)
        assert g.value == 3.0
        g.high_water(7.0)
        assert g.value == 7.0

    def test_histogram_stats_and_quantiles(self):
        h = Histogram("lat")
        for v in (0.001, 0.002, 0.005, 0.01, 0.01, 0.1):
            h.record(v)
        snap = h.snapshot()
        assert snap["count"] == 6
        assert snap["min"] == pytest.approx(0.001)
        assert snap["max"] == pytest.approx(0.1)
        assert snap["mean"] == pytest.approx(sum((0.001, 0.002, 0.005, 0.01, 0.01, 0.1)) / 6)
        # p50 lands in the 0.005-0.01 region of the 1-2-5 ladder.
        assert 0.002 <= snap["p50"] <= 0.02
        assert snap["p99"] <= 0.2

    def test_histogram_empty(self):
        snap = Histogram("e").snapshot()
        assert snap["count"] == 0
        assert snap["mean"] == 0.0

    def test_timer_records_elapsed(self):
        registry = MetricsRegistry()
        with registry.timer("t"):
            pass
        snap = registry.histogram("t").snapshot()
        assert snap["count"] == 1
        assert snap["max"] >= 0.0

    def test_registry_memoizes_instruments(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")

    def test_registry_value_lookup(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(2)
        registry.gauge("b").set(1.5)
        assert registry.value("a") == 2
        assert registry.value("b") == 1.5
        with pytest.raises(KeyError):
            registry.value("missing")

    def test_snapshot_sorted_by_name(self):
        registry = MetricsRegistry()
        registry.counter("z").inc()
        registry.counter("a").inc()
        names = [row["name"] for row in registry.snapshot()]
        assert names == sorted(names)

    def test_jsonl_round_trip(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("hits").inc(3)
        registry.gauge("depth").set(2)
        registry.histogram("lat").record(0.5)
        path = registry.write_jsonl(
            tmp_path / "m.jsonl", meta={"label": "t"}
        )
        meta, rows = read_jsonl(path)
        assert meta["label"] == "t"
        by_name = {r["name"]: r for r in rows}
        assert by_name["hits"]["value"] == 3
        assert by_name["lat"]["count"] == 1


class TestTracer:
    def test_span_records_complete_event(self):
        tracer = SpanTracer()
        with tracer.span("work", cat="test", detail=1):
            pass
        (event,) = tracer.events
        assert event["ph"] == "X"
        assert event["name"] == "work"
        assert event["pid"] == WALL_PID
        assert event["dur"] >= 0
        assert event["args"] == {"detail": 1}

    def test_sim_span_maps_seconds_to_sim_track(self):
        tracer = SpanTracer()
        tracer.sim_span("outage", 10.0, 40.0, track="pjm")
        (event,) = tracer.events
        assert event["pid"] == SIM_PID
        assert event["ts"] == pytest.approx(10.0 * 1e6)
        assert event["dur"] == pytest.approx(30.0 * 1e6)
        assert event["tid"] == _stable_tid("pjm")

    def test_stable_tid_is_deterministic(self):
        assert _stable_tid("pjm") == _stable_tid("pjm")
        assert _stable_tid("pjm") != _stable_tid("caiso")

    def test_chrome_trace_document(self, tmp_path):
        tracer = SpanTracer()
        tracer.instant("marker")
        path = tracer.write(tmp_path / "trace.json")
        doc = json.loads(path.read_text())
        assert "traceEvents" in doc
        names = {e["name"] for e in doc["traceEvents"]}
        assert "marker" in names
        # Both clock domains get process_name metadata.
        assert {"wall-clock", "sim-time"} <= {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e.get("ph") == "M"
        }


class TestObserverLifecycle:
    def test_off_by_default(self):
        assert obs.current() is None
        assert not obs.is_enabled()

    def test_enable_disable(self):
        observer = obs.enable("t")
        try:
            assert obs.current() is observer
            assert obs.is_enabled()
        finally:
            obs.disable()
        assert obs.current() is None

    def test_collecting_restores_previous(self):
        with obs.collecting("outer") as outer:
            assert obs.current() is outer
            with obs.collecting("inner") as inner:
                assert obs.current() is inner
            assert obs.current() is outer
        assert obs.current() is None

    def test_write_artifacts(self, tmp_path):
        with obs.collecting("t") as observer:
            observer.registry.counter("c").inc()
            observer.tracer.instant("m")
        metrics, trace = observer.write_artifacts(tmp_path / "obs")
        assert metrics.exists() and trace.exists()
        meta, rows = read_jsonl(metrics)
        assert meta["label"] == "t"
        assert rows[0]["name"] == "c"

    def test_hit_rate_accepts_counters_and_numbers(self):
        registry = MetricsRegistry()
        hits, misses = registry.counter("h"), registry.counter("m")
        hits.inc(3)
        misses.inc(1)
        assert obs.hit_rate(hits, misses) == pytest.approx(0.75)
        assert obs.hit_rate(3, 1) == pytest.approx(0.75)
        assert obs.hit_rate(0, 0) is None

    def test_configure_logging_no_handler_stacking(self):
        logger = obs.configure_logging("info")
        again = obs.configure_logging("debug")
        assert logger is again
        assert len(logger.handlers) == 1
        assert logger.level == 10  # DEBUG

    def test_configure_logging_rejects_unknown_level(self):
        with pytest.raises(ValueError):
            obs.configure_logging("loud")


class TestReport:
    def test_derived_rates_from_counter_pairs(self):
        rows = [
            {"name": "x.hits", "type": "counter", "value": 3},
            {"name": "x.misses", "type": "counter", "value": 1},
            {"name": "lonely.hits", "type": "counter", "value": 5},
        ]
        rates = dict(derived_rates(rows))
        assert rates["x.hit_rate"] == pytest.approx(0.75)
        assert "lonely.hit_rate" not in rates

    def test_render_report_text(self, tmp_path):
        with obs.collecting("demo") as observer:
            observer.registry.counter("engine.cache.column.hits").inc(9)
            observer.registry.counter("engine.cache.column.misses").inc(1)
            observer.registry.gauge("depth").set(4)
            observer.registry.histogram("lat").record(0.01)
        metrics, _ = observer.write_artifacts(tmp_path)
        text = render_report(metrics)
        assert "demo" in text
        assert "engine.cache.column.hit_rate" in text
        assert "90.0%" in text
        assert "lat" in text


class TestDashboard:
    def test_bar_chart_escapes_and_scales(self):
        svg = bar_chart([("a<b", 2.0), ("c", 1.0)], "t<itle")
        assert "a&lt;b" in svg and "t&lt;itle" in svg
        assert svg.count("<rect") == 2

    def test_bar_chart_empty(self):
        assert "no data" in bar_chart([], "t")

    def test_render_dashboard_with_no_inputs(self):
        html = render_dashboard()
        assert html.startswith("<!DOCTYPE html>")
        assert "Nothing to show yet" in html

    def test_build_dashboard_from_all_sources(self, tmp_path):
        bench = tmp_path / "BENCH_x.json"
        bench.write_text(
            json.dumps(
                {
                    "benchmark": "engine-throughput",
                    "version": "0",
                    "generated_at": "now",
                    "scenarios": [
                        {
                            "name": "fifo-10",
                            "wall_s": 0.1,
                            "events_per_s": 1000.0,
                            "tasks_per_s": 900.0,
                            "avg_select_latency_ms": 0.02,
                            "speedup_vs_pre_refactor": 8.5,
                            "frontier_matrix_hit_rate": 0.5,
                        }
                    ],
                }
            )
        )
        from repro.campaign.store import STATUS_OK, ResultStore, TrialRecord

        store = ResultStore(tmp_path / "store.jsonl")
        store.append(
            TrialRecord(
                key="k1", campaign="demo",
                config={"scheduler": "fifo"}, status=STATUS_OK,
                metrics={"carbon_footprint": 12.5}, duration_s=0.5,
            )
        )
        with obs.collecting("t") as observer:
            observer.registry.counter("c.hits").inc(1)
            observer.registry.counter("c.misses").inc(1)
        obs_dir = tmp_path / "obs"
        observer.write_artifacts(obs_dir)

        output = tmp_path / "dash" / "index.html"
        path = build_dashboard(
            output=output,
            bench_paths=[str(bench)],
            store_paths=[str(store.path)],
            obs_dirs=[str(obs_dir)],
        )
        text = path.read_text()
        assert "fifo-10" in text
        assert "speedup vs pre-refactor" in text
        assert "demo / fifo" in text
        assert "derived hit rates" in text

    def test_build_dashboard_tolerates_missing_inputs(self, tmp_path):
        path = build_dashboard(
            output=tmp_path / "index.html",
            bench_paths=[str(tmp_path / "BENCH_missing.json")],
            store_paths=[str(tmp_path / "missing.jsonl")],
            obs_dirs=[str(tmp_path / "no-obs")],
        )
        text = path.read_text()
        assert "unreadable" in text
        assert "store does not exist" in text
        assert "no metrics.jsonl here" in text


class TestHistorySeries:
    """``history_series`` / the dashboard trend section edge cases."""

    @staticmethod
    def engine_bench(snap_dir, events_per_s):
        snap_dir.mkdir(parents=True, exist_ok=True)
        (snap_dir / "BENCH_engine.json").write_text(
            json.dumps(
                {
                    "benchmark": "engine-throughput",
                    "scenarios": [
                        {"name": "smoke", "events_per_s": events_per_s}
                    ],
                }
            )
        )

    def test_single_snapshot(self, tmp_path):
        from repro.obs.dashboard import history_series

        root = tmp_path / "bench-history"
        self.engine_bench(root / "run-00", 1000.0)
        snapshots, series, skipped = history_series(root)
        assert snapshots == ["run-00"]
        assert series == {
            "engine events/s (mean)": [("run-00", 1000.0)]
        }
        assert skipped == []
        # The trend section still renders — one bar, no crash.
        path = build_dashboard(
            output=tmp_path / "index.html",
            bench_paths=[], store_paths=[], obs_dirs=[],
            history_dir=str(root),
        )
        assert "bench history" in path.read_text()

    def test_gap_snapshots_skip_missing_metrics(self, tmp_path):
        """A snapshot without a given BENCH file leaves a gap in that
        metric's series rather than a zero."""
        from repro.obs.dashboard import history_series

        root = tmp_path / "bench-history"
        self.engine_bench(root / "run-00", 1000.0)
        (root / "run-01").mkdir()  # recorded, but benchless
        self.engine_bench(root / "run-02", 900.0)
        snapshots, series, skipped = history_series(root)
        assert snapshots == ["run-00", "run-01", "run-02"]
        assert series["engine events/s (mean)"] == [
            ("run-00", 1000.0), ("run-02", 900.0),
        ]
        assert skipped == []

    def test_malformed_snapshot_skipped_with_warning(self, tmp_path, caplog):
        from repro.obs.dashboard import history_series

        root = tmp_path / "bench-history"
        self.engine_bench(root / "run-00", 1000.0)
        bad = root / "run-01"
        bad.mkdir()
        (bad / "BENCH_engine.json").write_text("{broken")
        (bad / "BENCH_list.json").write_text("[1, 2, 3]")  # not an object
        # The repro logger tree runs with propagate=False (CLI config), so
        # capture by attaching caplog's handler to the module logger.
        import logging

        dashboard_logger = logging.getLogger("repro.obs.dashboard")
        dashboard_logger.addHandler(caplog.handler)
        try:
            with caplog.at_level("WARNING", logger="repro.obs.dashboard"):
                snapshots, series, skipped = history_series(root)
        finally:
            dashboard_logger.removeHandler(caplog.handler)
        assert snapshots == ["run-00", "run-01"]
        assert len(series["engine events/s (mean)"]) == 1
        reasons = {path: reason for path, reason in skipped}
        assert any("JSONDecodeError" in r for r in reasons.values())
        assert any("not a JSON object" in r for r in reasons.values())
        warned = [r.getMessage() for r in caplog.records]
        assert any("skipping malformed bench snapshot" in m for m in warned)
        # The dashboard surfaces the skipped files instead of hiding them.
        path = build_dashboard(
            output=tmp_path / "index.html",
            bench_paths=[], store_paths=[], obs_dirs=[],
            history_dir=str(root),
        )
        assert "skipped malformed snapshot files" in path.read_text()

    def test_missing_directory_is_empty(self, tmp_path):
        from repro.obs.dashboard import history_series

        snapshots, series, skipped = history_series(tmp_path / "absent")
        assert (snapshots, series, skipped) == ([], {}, [])


class TestAlertsPanel:
    def test_report_and_dashboard_include_alerts(self, tmp_path):
        from repro.obs.slo import SloEvaluator, SloRule

        with obs.collecting("alerting") as observer:
            observer.registry.counter("engine.events.task_done").inc(3)
        obs_dir = tmp_path / "obs"
        metrics_path, _ = observer.write_artifacts(obs_dir)

        evaluator = SloEvaluator(
            [SloRule(name="busy", metric="counter:engine.events.task_done",
                     threshold=0.0)]
        )
        evaluator.evaluate(1, 600.0, registry=observer.registry)
        evaluator.write_alerts(obs_dir / "alerts.jsonl")

        rendered = render_report(metrics_path)
        assert "alerts" in rendered
        assert "firing" in rendered and "busy" in rendered

        path = build_dashboard(
            output=tmp_path / "index.html",
            bench_paths=[], store_paths=[], obs_dirs=[str(obs_dir)],
        )
        text = path.read_text()
        assert "SLO alerts" in text
        assert "busy" in text

    def test_no_alerts_file_no_panel(self, tmp_path):
        with obs.collecting("quiet") as observer:
            observer.registry.counter("c").inc()
        obs_dir = tmp_path / "obs"
        metrics_path, _ = observer.write_artifacts(obs_dir)
        assert "alerts" not in render_report(metrics_path)
        path = build_dashboard(
            output=tmp_path / "index.html",
            bench_paths=[], store_paths=[], obs_dirs=[str(obs_dir)],
        )
        assert "SLO alerts" not in path.read_text()
