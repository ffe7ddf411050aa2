"""Static HTML dashboard generator (``repro obs dashboard``).

Renders everything the repo measures into one self-contained
``dashboard/index.html`` — no server, no JavaScript, no external assets;
charts are inline SVG, so the file renders from ``file://`` and survives
being archived as a CI artifact. Three source kinds, all optional:

- **bench reports** (``BENCH_*.json`` from ``repro perf`` and the
  ``benchmarks/`` harness): the run's headline metrics, per-scenario
  throughput bars, and the frontier-cache hit rates when the run
  collected them;
- **campaign stores** (JSONL :class:`~repro.campaign.store.ResultStore`
  files): per-campaign trial counts and per-scheduler carbon/duration
  aggregates;
- **obs snapshots** (``metrics.jsonl`` written by ``--obs`` runs):
  counters, derived cache hit rates, and histogram quantiles.

CI builds the dashboard from the smoke benches and a small campaign run
and uploads it as an artifact (see ``.github/workflows/ci.yml``).
"""

from __future__ import annotations

import glob
import html
import json
import os
import time
from pathlib import Path
from typing import Any, Sequence

from repro.obs.metrics import read_jsonl
from repro.obs.observer import DEFAULT_OBS_DIR, METRICS_FILENAME
from repro.obs.report import derived_rates
from repro.ioutil import atomic_write_text

#: Bar fill colors, cycled per chart (muted, print-friendly).
_PALETTE = ("#4878a8", "#6aa84f", "#b46504", "#8e63a8", "#ad3c3c")

_CSS = """
body { font-family: system-ui, -apple-system, sans-serif; margin: 2rem auto;
       max-width: 72rem; padding: 0 1rem; color: #1c2733; }
h1 { font-size: 1.5rem; border-bottom: 2px solid #4878a8; padding-bottom: .4rem; }
h2 { font-size: 1.15rem; margin-top: 2.2rem; }
h3 { font-size: 1rem; color: #44525f; }
p.meta { color: #667; font-size: .85rem; }
table { border-collapse: collapse; font-size: .85rem; margin: .8rem 0; }
th, td { padding: .3rem .7rem; border-bottom: 1px solid #dde4ea; text-align: right; }
th { background: #f2f5f8; }
th:first-child, td:first-child { text-align: left; }
svg { margin: .4rem 0 1rem 0; }
.empty { color: #889; font-style: italic; }
footer { margin-top: 3rem; color: #889; font-size: .8rem;
         border-top: 1px solid #dde4ea; padding-top: .6rem; }
"""


def _esc(value: Any) -> str:
    return html.escape(str(value))


def bar_chart(
    items: Sequence[tuple[str, float]],
    title: str,
    fmt: str = "{:,.0f}",
    color: str = _PALETTE[0],
    max_value: float | None = None,
) -> str:
    """A horizontal bar chart as an inline SVG fragment.

    ``items`` are (label, value) rows; bars scale to the max (or the given
    ``max_value``, e.g. 1.0 for rates so 40% visibly differs from 90%).
    """
    if not items:
        return '<p class="empty">(no data)</p>'
    label_w, bar_w, row_h, pad = 220, 420, 24, 4
    top = 26
    width = label_w + bar_w + 90
    height = top + len(items) * (row_h + pad)
    peak = max_value if max_value is not None else max(v for _, v in items)
    peak = peak if peak > 0 else 1.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" role="img" aria-label="{_esc(title)}">',
        f'<text x="0" y="14" font-size="13" font-weight="600" '
        f'fill="#1c2733">{_esc(title)}</text>',
    ]
    for i, (label, value) in enumerate(items):
        y = top + i * (row_h + pad)
        w = max(1.0, bar_w * min(value, peak) / peak)
        parts.append(
            f'<text x="{label_w - 8}" y="{y + row_h - 8}" font-size="12" '
            f'text-anchor="end" fill="#44525f">{_esc(label)}</text>'
        )
        parts.append(
            f'<rect x="{label_w}" y="{y}" width="{w:.1f}" '
            f'height="{row_h - 6}" rx="2" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{label_w + w + 6:.1f}" y="{y + row_h - 8}" '
            f'font-size="12" fill="#1c2733">{_esc(fmt.format(value))}</text>'
        )
    parts.append("</svg>")
    return "".join(parts)


def _table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    head = "".join(f"<th>{_esc(h)}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{_esc(cell)}</td>" for cell in row) + "</tr>"
        for row in rows
    )
    return f"<table><tr>{head}</tr>{body}</table>"


# -- bench reports -------------------------------------------------------
def headline_metrics(doc: dict) -> dict[str, float]:
    """The one-or-two numbers that summarize a bench report's run.

    Keyed by the report's ``benchmark`` field; unknown benchmarks
    contribute nothing.
    """
    out: dict[str, float] = {}
    kind = doc.get("benchmark")
    if kind == "engine-throughput":
        rates = [
            float(s.get("events_per_s", 0.0))
            for s in doc.get("scenarios", [])
        ]
        if rates:
            out["engine events/s (mean)"] = sum(rates) / len(rates)
        campaign = doc.get("campaign_throughput")
        if campaign:
            out["campaign trials/min"] = float(campaign["trials_per_min"])
    elif kind == "stream-steady":
        out["stream jobs/s"] = float(doc.get("steady_jobs_per_s", 0.0))
        out["stream peak-RSS ratio"] = float(doc.get("rss_ratio", 0.0))
    return out


def _bench_section(path: str) -> str:
    try:
        doc = json.loads(Path(path).read_text())
        if not isinstance(doc, dict):
            raise ValueError(
                f"expected a JSON object, got {type(doc).__name__}"
            )
    except (OSError, ValueError) as exc:
        return (
            f"<h2>{_esc(path)}</h2>"
            f'<p class="empty">unreadable: {_esc(exc)}</p>'
        )
    scenarios = doc.get("scenarios", [])
    name = doc.get("benchmark", os.path.basename(path))
    out = [
        f"<h2>bench: {_esc(name)} <small>({_esc(os.path.basename(path))}"
        f")</small></h2>",
        f'<p class="meta">version {_esc(doc.get("version", "?"))}, '
        f'generated {_esc(doc.get("generated_at", "?"))}</p>',
    ]
    headline = headline_metrics(doc)
    if headline:
        out.append(
            _table(
                ("headline metric", "value"),
                [
                    (metric, f"{value:.3f}" if value < 10 else f"{value:,.0f}")
                    for metric, value in headline.items()
                ],
            )
        )
    if not scenarios:
        if not headline:
            out.append('<p class="empty">(no scenarios)</p>')
        return "".join(out)
    throughput = [
        (s["name"], float(s.get("events_per_s", 0.0))) for s in scenarios
    ]
    out.append(bar_chart(throughput, "events / second", color=_PALETTE[0]))
    rates: list[tuple[str, float]] = []
    for s in scenarios:
        for key, short in (
            ("frontier_matrix_hit_rate", "matrix"),
            ("frontier_column_hit_rate", "column"),
        ):
            if s.get(key) is not None:
                rates.append((f"{s['name']} {short}", float(s[key])))
    if rates:
        out.append(
            bar_chart(
                rates, "frontier-cache hit rates", fmt="{:.0%}",
                color=_PALETTE[3], max_value=1.0,
            )
        )
    out.append(
        _table(
            ("scenario", "wall s", "events/s", "tasks/s", "select ms"),
            [
                (
                    s["name"],
                    f"{s.get('wall_s', 0.0):.3f}",
                    f"{s.get('events_per_s', 0.0):,.0f}",
                    f"{s.get('tasks_per_s', 0.0):,.0f}",
                    f"{s.get('avg_select_latency_ms', 0.0):.3f}",
                )
                for s in scenarios
            ],
        )
    )
    return "".join(out)


# -- campaign stores -----------------------------------------------------
def _store_section(path: str) -> str:
    from repro.campaign.store import ResultStore

    store = ResultStore(path)
    if not store.path.exists():
        return (
            f"<h2>store: {_esc(path)}</h2>"
            '<p class="empty">store does not exist</p>'
        )
    records = store.records()
    out = [f"<h2>store: {_esc(os.path.basename(path))}</h2>"]
    if not records:
        out.append('<p class="empty">(empty store)</p>')
        return "".join(out)
    campaigns: dict[str, list] = {}
    for record in records:
        campaigns.setdefault(record.campaign, []).append(record)
    rows = []
    carbon_bars: list[tuple[str, float]] = []
    for campaign in sorted(campaigns):
        recs = campaigns[campaign]
        ok = [r for r in recs if r.ok]
        rows.append(
            (
                campaign,
                len(recs),
                len(ok),
                len(recs) - len(ok),
                f"{sum(r.duration_s for r in recs):.1f}",
            )
        )
        by_sched: dict[str, list[float]] = {}
        for r in ok:
            sched = r.config.get("scheduler")
            carbon = (r.metrics or {}).get("carbon_footprint")
            if sched is not None and carbon is not None:
                by_sched.setdefault(sched, []).append(float(carbon))
        for sched in sorted(by_sched):
            values = by_sched[sched]
            carbon_bars.append(
                (f"{campaign} / {sched}", sum(values) / len(values))
            )
    out.append(
        _table(("campaign", "trials", "ok", "failed", "total s"), rows)
    )
    if carbon_bars:
        out.append(
            bar_chart(
                carbon_bars, "mean carbon per trial (g)", fmt="{:,.1f}",
                color=_PALETTE[2],
            )
        )
    return "".join(out)


# -- obs snapshots -------------------------------------------------------
def _obs_section(directory: str) -> str:
    metrics_path = os.path.join(directory, METRICS_FILENAME)
    out = [f"<h2>obs snapshot: {_esc(directory)}</h2>"]
    if not os.path.exists(metrics_path):
        out.append(f'<p class="empty">no {METRICS_FILENAME} here</p>')
        return "".join(out)
    meta, rows = read_jsonl(metrics_path)
    out.append(
        f'<p class="meta">label {_esc(meta.get("label") or "(none)")}, '
        f'generated {_esc(meta.get("generated_at", "?"))}</p>'
    )
    rates = derived_rates(rows)
    if rates:
        out.append(
            bar_chart(
                rates, "derived hit rates", fmt="{:.0%}",
                color=_PALETTE[3], max_value=1.0,
            )
        )
    counters = [r for r in rows if r["type"] == "counter"]
    if counters:
        out.append(
            _table(
                ("counter", "value"),
                [(r["name"], f"{r['value']:,}") for r in counters],
            )
        )
    gauges = [r for r in rows if r["type"] == "gauge"]
    if gauges:
        out.append(
            _table(
                ("gauge", "value"),
                [(r["name"], f"{r['value']:g}") for r in gauges],
            )
        )
    histograms = [r for r in rows if r["type"] == "histogram"]
    if histograms:
        out.append(
            _table(
                (
                    "histogram", "count", "mean", "min", "p50", "p95",
                    "p99", "max",
                ),
                [
                    (
                        r["name"],
                        r["count"],
                        f"{r['mean']:.3g}",
                        f"{r.get('min', 0.0):.3g}",
                        f"{r['p50']:.3g}",
                        f"{r['p95']:.3g}",
                        f"{r['p99']:.3g}",
                        f"{r['max']:.3g}",
                    )
                    for r in histograms
                ],
            )
        )
    return "".join(out)


# -- assembly ------------------------------------------------------------
def render_dashboard(
    bench_paths: Sequence[str] = (),
    store_paths: Sequence[str] = (),
    obs_dirs: Sequence[str] = (),
) -> str:
    """The full dashboard HTML document as a string."""
    from repro import __version__

    generated = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    sections: list[str] = []
    for path in bench_paths:
        sections.append(_bench_section(path))
    for path in store_paths:
        sections.append(_store_section(path))
    for directory in obs_dirs:
        sections.append(_obs_section(directory))
    if not sections:
        sections.append(
            '<p class="empty">Nothing to show yet — run <code>repro perf '
            "--smoke</code>, a campaign, or any command with "
            "<code>--obs</code>, then rebuild.</p>"
        )
    body = "".join(sections)
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>repro dashboard</title>
<style>{_CSS}</style>
</head>
<body>
<h1>repro dashboard</h1>
<p class="meta">repro {_esc(__version__)} — generated {generated}</p>
{body}
<footer>Built by <code>repro obs dashboard</code> (stdlib only, inline
SVG; safe to open from file:// or a CI artifact).</footer>
</body>
</html>
"""


def discover_inputs(
    bench_paths: Sequence[str] | None,
    store_paths: Sequence[str] | None,
    obs_dirs: Sequence[str] | None,
) -> tuple[list[str], list[str], list[str]]:
    """Fill unspecified inputs from cwd conventions.

    ``None`` means "discover" (``BENCH_*.json``, the default campaign
    store, the default obs dir); an explicit — even empty — list is taken
    as-is.
    """
    from repro.cli import DEFAULT_CAMPAIGN_STORE

    if bench_paths is None:
        bench_paths = sorted(glob.glob("BENCH_*.json"))
    if store_paths is None:
        store_paths = (
            [DEFAULT_CAMPAIGN_STORE]
            if os.path.exists(DEFAULT_CAMPAIGN_STORE)
            else []
        )
    if obs_dirs is None:
        obs_dirs = (
            [DEFAULT_OBS_DIR]
            if os.path.exists(os.path.join(DEFAULT_OBS_DIR, METRICS_FILENAME))
            else []
        )
    return list(bench_paths), list(store_paths), list(obs_dirs)


def build_dashboard(
    output: str | Path = os.path.join("dashboard", "index.html"),
    bench_paths: Sequence[str] | None = None,
    store_paths: Sequence[str] | None = None,
    obs_dirs: Sequence[str] | None = None,
) -> Path:
    """Discover inputs, render, and write the dashboard file."""
    benches, stores, dirs = discover_inputs(bench_paths, store_paths, obs_dirs)
    document = render_dashboard(benches, stores, dirs)
    # Atomic, so a published dashboard is never half-written.
    return atomic_write_text(Path(output), document)
