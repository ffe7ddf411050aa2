"""Unit tests for the ``repro.obs`` instrumentation core.

Covers the metrics instruments (counter/gauge/histogram/timer), the
registry snapshot + JSONL round trip, span tracing and its Chrome-trace
export, the observer lifecycle (including restore-on-exit nesting), the
text report, the dashboard generator, and the package's lazy exports.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.obs.dashboard import (
    bar_chart,
    build_dashboard,
    discover_inputs,
    headline_metrics,
    render_dashboard,
)
from repro.obs.metrics import (
    BUCKET_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    read_jsonl,
)
from repro.obs.report import derived_rates, render_report
from repro.obs.observer import DEFAULT_OBS_DIR, METRICS_FILENAME
from repro.obs.tracing import SIM_PID, WALL_PID, SpanTracer, _stable_tid

#: The bench reports committed at the repository root.
COMMITTED_BENCHES = sorted(
    p.name for p in Path(__file__).resolve().parents[1].glob("BENCH_*.json")
)

#: ``headline_metrics`` cases: a bench report and the metrics it yields.
HEADLINE_CASES = {
    "engine-with-campaign": (
        {
            "benchmark": "engine-throughput",
            "scenarios": [{"events_per_s": 1000.0}, {"events_per_s": 3000.0}],
            "campaign_throughput": {"trials_per_min": 600},
        },
        {"engine events/s (mean)": 2000.0, "campaign trials/min": 600.0},
    ),
    "engine-without-campaign": (
        {
            "benchmark": "engine-throughput",
            "scenarios": [{"events_per_s": 10.0}],
            "campaign_throughput": None,
        },
        {"engine events/s (mean)": 10.0},
    ),
    "engine-without-scenarios": (
        {"benchmark": "engine-throughput", "scenarios": []},
        {},
    ),
    "stream": (
        {
            "benchmark": "stream-steady",
            "steady_jobs_per_s": 1690.0,
            "rss_ratio": 1.019,
        },
        {"stream jobs/s": 1690.0, "stream peak-RSS ratio": 1.019},
    ),
    "unknown-benchmark": (
        {"benchmark": "disruption", "scenarios": [{"events_per_s": 5.0}]},
        {},
    ),
    "no-benchmark-field": ({"scenarios": [{"events_per_s": 5.0}]}, {}),
}


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


class TestHistogramBuckets:
    def test_bounds_are_a_1_2_5_ladder_over_ten_decades(self):
        assert len(BUCKET_BOUNDS) == 30
        assert BUCKET_BOUNDS[:3] == pytest.approx((1e-7, 2e-7, 5e-7))
        assert BUCKET_BOUNDS[-3:] == pytest.approx((100.0, 200.0, 500.0))
        assert all(a < b for a, b in zip(BUCKET_BOUNDS, BUCKET_BOUNDS[1:]))

    def test_upper_bounds_are_inclusive(self):
        h = Histogram("x")
        edges = (BUCKET_BOUNDS[0], BUCKET_BOUNDS[10], BUCKET_BOUNDS[-1])
        for bound in edges:
            h.record(bound)
        assert h.buckets() == [(bound, 1) for bound in edges]

    def test_overflow_bucket_reports_none(self):
        h = Histogram("x")
        for value in (0.003, 1e4, 2e4):
            h.record(value)
        (bound, n), overflow = h.buckets()
        assert bound == pytest.approx(0.005) and n == 1
        assert overflow == (None, 2)
        assert h.quantile(1.0) == 2e4
        snap = json.loads(json.dumps(h.snapshot()))
        assert snap["buckets"] == [[bound, 1], [None, 2]]


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

    def test_bench_section_shows_the_run_headline_metrics(self, tmp_path):
        """The engine bench's campaign trials/min and the stream bench's
        jobs/s and peak-RSS ratio appear for the run itself; a bench
        without scenarios still shows its headline metrics, and one with
        neither says so."""
        engine = tmp_path / "BENCH_engine.json"
        engine.write_text(
            json.dumps(
                {
                    "benchmark": "engine-throughput",
                    "scenarios": [{"name": "smoke", "events_per_s": 1500.0}],
                    "campaign_throughput": {"trials_per_min": 4321.5},
                }
            )
        )
        stream = tmp_path / "BENCH_stream.json"
        stream.write_text(
            json.dumps(
                {
                    "benchmark": "stream-steady",
                    "steady_jobs_per_s": 1563.2,
                    "rss_ratio": 1.0137,
                }
            )
        )
        other = tmp_path / "BENCH_other.json"
        other.write_text(json.dumps({"benchmark": "other"}))
        text = render_dashboard(
            bench_paths=[str(engine), str(stream), str(other)]
        )
        for metric, value in (
            ("engine events/s (mean)", "1,500"),
            ("campaign trials/min", "4,322"),
            ("stream jobs/s", "1,563"),
            ("stream peak-RSS ratio", "1.014"),
        ):
            assert f"<td>{metric}</td><td>{value}</td>" in text
        assert text.count("headline metric") == 2
        assert text.count("(no scenarios)") == 1

    @pytest.mark.parametrize(
        "payload", ["[1, 2]", "3", '"text"', "null"],
        ids=["list", "number", "string", "null"],
    )
    def test_bench_report_that_is_not_an_object_is_unreadable(
        self, tmp_path, payload
    ):
        bench = tmp_path / "BENCH_odd.json"
        bench.write_text(payload)
        text = render_dashboard(bench_paths=[str(bench)])
        assert "unreadable: expected a JSON object" in text

    @pytest.mark.parametrize("name", COMMITTED_BENCHES)
    def test_committed_bench_report_renders(self, name):
        path = Path(__file__).resolve().parents[1] / name
        doc = json.loads(path.read_text())
        text = render_dashboard(bench_paths=[str(path)])
        assert f"bench: {doc['benchmark']} " in text
        assert "unreadable" not in text

    def test_discover_inputs_reads_the_working_directory(
        self, tmp_path, monkeypatch
    ):
        from repro.cli import DEFAULT_CAMPAIGN_STORE

        monkeypatch.chdir(tmp_path)
        for name in ("BENCH_b.json", "BENCH_a.json", "other.json"):
            (tmp_path / name).write_text("{}")
        benches = ["BENCH_a.json", "BENCH_b.json"]
        assert discover_inputs(None, None, None) == (benches, [], [])
        (tmp_path / DEFAULT_CAMPAIGN_STORE).write_text("")
        (tmp_path / DEFAULT_OBS_DIR).mkdir()
        (tmp_path / DEFAULT_OBS_DIR / METRICS_FILENAME).write_text("")
        assert discover_inputs(None, None, None) == (
            benches, [DEFAULT_CAMPAIGN_STORE], [DEFAULT_OBS_DIR],
        )

    def test_discover_inputs_takes_explicit_lists_as_is(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "BENCH_a.json").write_text("{}")
        assert discover_inputs([], [], []) == ([], [], [])
        assert discover_inputs(["x.json"], ("s.jsonl",), ["o"]) == (
            ["x.json"], ["s.jsonl"], ["o"],
        )


class TestHeadlineMetrics:
    @pytest.mark.parametrize(
        "doc, expected", list(HEADLINE_CASES.values()), ids=list(HEADLINE_CASES)
    )
    def test_headline_metrics(self, doc, expected):
        assert headline_metrics(doc) == expected


class TestLazyPackage:
    """``repro.obs`` resolves its public names on first use."""

    def test_every_public_name_resolves_to_its_submodule(self):
        assert "collecting" in obs.__all__ and "build_dashboard" in obs.__all__
        for name in obs.__all__:
            module = importlib.import_module(
                f"repro.obs.{obs._SUBMODULE_OF[name]}"
            )
            assert getattr(obs, name) is getattr(module, name)
        from repro.obs import build_dashboard, collecting

        assert build_dashboard is obs.build_dashboard
        assert collecting is obs.collecting

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError):
            getattr(obs, "no_such_name")

    def test_entry_points_skip_the_artifact_modules(self):
        heavy = (
            "http.server", "ssl", "email", "repro.obs.dashboard",
            "repro.obs.report",
        )
        code = (
            "import sys, repro.simulator.engine, repro.stream, repro.campaign\n"
            f"print([m for m in {heavy!r} if m in sys.modules])"
        )
        src = str(Path(obs.__file__).resolve().parents[2])
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=src),
        ).stdout
        assert out.strip() == "[]"
