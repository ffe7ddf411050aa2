"""``repro.obs`` — zero-overhead instrumentation for the reproduction.

A lightweight metrics registry (counters, gauges, histograms, timers) plus
span tracing, wired through the engine, the campaign runner, and the
geo/disrupt layers. Collection is **off by default** and costs near-zero
when off: instrumented components cache :func:`current` (then ``None``)
once at construction, so every probe site is one attribute load and an
``is None`` test. With collection on, instrumentation is
**fingerprint-neutral** — it never touches RNG state or event ordering,
a contract enforced by ``tests/test_obs_fingerprints.py`` against the
nine pinned SHA-256 scenarios.

Artifacts:

- **metrics snapshots** serialize to JSONL (``obs/metrics.jsonl``),
  rendered by ``repro obs report``;
- **spans** export to Chrome-trace-format JSON (``obs/trace.json``),
  loadable in Perfetto;
- the **dashboard** generator (:mod:`repro.obs.dashboard`) renders
  ``BENCH_*.json`` reports, campaign-store aggregates, and obs snapshots
  into a static ``dashboard/index.html`` (stdlib only, no server).

Enable collection from the CLI with ``--obs`` on ``run`` / ``campaign`` /
``geo`` / ``disrupt`` / ``perf``, or programmatically::

    from repro import obs

    with obs.collecting("my-trial") as observer:
        run_experiment(config)
    observer.write_artifacts("obs")
"""

from repro._lazy import lazy_exports

#: Public name -> the submodule defining it. Names resolve on first access
#: (:mod:`repro._lazy`), so importing one submodule — as the engine does
#: with :mod:`repro.obs.observer` — does not load the dashboard and report
#: modules and what they import.
_SUBMODULE_OF = {
    **dict.fromkeys(("build_dashboard", "render_dashboard"), "dashboard"),
    **dict.fromkeys(
        ("Counter", "Gauge", "Histogram", "MetricsRegistry", "Timer", "read_jsonl"),
        "metrics",
    ),
    **dict.fromkeys(
        (
            "DEFAULT_OBS_DIR",
            "LOG_LEVELS",
            "METRICS_FILENAME",
            "TRACE_FILENAME",
            "FrontierCacheStats",
            "Observer",
            "collecting",
            "configure_logging",
            "current",
            "disable",
            "enable",
            "hit_rate",
            "is_enabled",
        ),
        "observer",
    ),
    **dict.fromkeys(("format_snapshot", "render_report"), "report"),
    "SpanTracer": "tracing",
}
__getattr__ = lazy_exports(__name__, _SUBMODULE_OF)
__all__ = sorted(_SUBMODULE_OF)
