"""``repro.obs`` — zero-overhead instrumentation for the reproduction.

A lightweight metrics registry (counters, gauges, histograms, timers) plus
span tracing, wired through the engine, the campaign runner, and the
geo/disrupt layers. Collection is **off by default** and costs near-zero
when off: instrumented components cache :func:`current` (then ``None``)
once at construction, so every probe site is one attribute load and an
``is None`` test. With collection on, instrumentation is
**fingerprint-neutral** — it never touches RNG state or event ordering,
a contract enforced by ``tests/test_obs_fingerprints.py`` against the
seven pinned SHA-256 scenarios.

Artifacts:

- **metrics snapshots** serialize to JSONL (``obs/metrics.jsonl``),
  rendered by ``repro obs report``;
- **spans** export to Chrome-trace-format JSON (``obs/trace.json``),
  loadable in Perfetto;
- the **dashboard** generator (:mod:`repro.obs.dashboard`) renders
  ``BENCH_*.json`` history, campaign-store aggregates, and obs snapshots
  into a static ``dashboard/index.html`` (stdlib only, no server).

The live half (this PR's :mod:`~repro.obs.export`, :mod:`~repro.obs.slo`,
and :mod:`~repro.obs.regress`):

- **exporters** publish one registry sample per service epoch, either
  appended to a JSONL time series or served as Prometheus text exposition
  from a background thread (``repro stream run --export-port N``);
- **SLO rules** are evaluated at epoch boundaries against the streaming
  windows, emitting alert transitions (``obs/alerts.jsonl``) that show in
  ``repro obs report`` and the dashboard;
- the **regression gate** (``repro obs regress``) compares the newest
  bench-history snapshot against a trailing baseline for CI.

Enable collection from the CLI with ``--obs`` on ``run`` / ``campaign`` /
``geo`` / ``disrupt`` / ``perf``, or programmatically::

    from repro import obs

    with obs.collecting("my-trial") as observer:
        run_experiment(config)
    observer.write_artifacts("obs")
"""

from repro.obs.dashboard import build_dashboard, render_dashboard
from repro.obs.export import (
    HttpExporter,
    JsonlExporter,
    MetricsExporter,
    parse_exposition,
    read_samples,
    render_exposition,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
    read_jsonl,
)
from repro.obs.regress import (
    RegressionReport,
    check_history,
    format_regression_report,
)
from repro.obs.slo import (
    ALERTS_FILENAME,
    SloAlert,
    SloEvaluator,
    SloRule,
    read_alerts,
)
from repro.obs.observer import (
    DEFAULT_OBS_DIR,
    LOG_LEVELS,
    METRICS_FILENAME,
    TRACE_FILENAME,
    FrontierCacheStats,
    Observer,
    collecting,
    configure_logging,
    current,
    disable,
    enable,
    hit_rate,
    is_enabled,
    snapshot_meta,
)
from repro.obs.report import format_snapshot, render_report
from repro.obs.tracing import SpanTracer

__all__ = [
    "ALERTS_FILENAME",
    "Counter",
    "DEFAULT_OBS_DIR",
    "FrontierCacheStats",
    "Gauge",
    "Histogram",
    "HttpExporter",
    "JsonlExporter",
    "LOG_LEVELS",
    "METRICS_FILENAME",
    "MetricsExporter",
    "MetricsRegistry",
    "Observer",
    "RegressionReport",
    "SloAlert",
    "SloEvaluator",
    "SloRule",
    "SpanTracer",
    "TRACE_FILENAME",
    "Timer",
    "build_dashboard",
    "check_history",
    "collecting",
    "configure_logging",
    "current",
    "disable",
    "enable",
    "format_regression_report",
    "format_snapshot",
    "hit_rate",
    "is_enabled",
    "parse_exposition",
    "read_alerts",
    "read_jsonl",
    "read_samples",
    "render_dashboard",
    "render_exposition",
    "render_report",
    "snapshot_meta",
]
