"""Text rendering of an obs metrics snapshot (``repro obs report``).

Reads the JSONL snapshot :meth:`~repro.obs.metrics.MetricsRegistry.
write_jsonl` produced and renders the operator view: counters grouped by
prefix, gauges, histograms with count/mean/p50/p95/p99, and the derived
cache hit rates the engine's frontier caches expose.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.obs.metrics import read_jsonl


def derived_rates(rows: list[dict[str, Any]]) -> list[tuple[str, float]]:
    """Hit rates derived from ``*.hits`` / ``*.misses`` counter pairs."""
    values = {
        row["name"]: row["value"]
        for row in rows
        if row.get("type") == "counter"
    }
    rates = []
    for name, hits in sorted(values.items()):
        if not name.endswith(".hits"):
            continue
        base = name[: -len(".hits")]
        misses = values.get(base + ".misses")
        if misses is None or hits + misses == 0:
            continue
        rates.append((base + ".hit_rate", hits / (hits + misses)))
    return rates


def format_snapshot(meta: dict[str, Any], rows: list[dict[str, Any]]) -> str:
    """The full text report for one snapshot."""
    lines: list[str] = []
    label = meta.get("label") or "(unlabeled)"
    lines.append(
        f"obs snapshot — {label}, generated {meta.get('generated_at', '?')}"
    )

    counters = [r for r in rows if r["type"] == "counter"]
    gauges = [r for r in rows if r["type"] == "gauge"]
    histograms = [r for r in rows if r["type"] == "histogram"]

    if counters:
        lines.append("")
        lines.append(f"{'counter':<44} {'value':>12}")
        for row in counters:
            lines.append(f"{row['name']:<44} {row['value']:>12}")
    rates = derived_rates(rows)
    if rates:
        lines.append("")
        lines.append(f"{'derived rate':<44} {'value':>12}")
        for name, rate in rates:
            lines.append(f"{name:<44} {rate:>11.1%}")
    if gauges:
        lines.append("")
        lines.append(f"{'gauge':<44} {'value':>12}")
        for row in gauges:
            lines.append(f"{row['name']:<44} {row['value']:>12g}")
    if histograms:
        lines.append("")
        lines.append(
            f"{'histogram':<36} {'count':>8} {'mean':>10} {'min':>10} "
            f"{'p50':>10} {'p95':>10} {'p99':>10} {'max':>10}"
        )
        for row in histograms:
            lines.append(
                f"{row['name']:<36} {row['count']:>8} {row['mean']:>10.3g} "
                f"{row.get('min', 0.0):>10.3g} "
                f"{row['p50']:>10.3g} {row['p95']:>10.3g} "
                f"{row['p99']:>10.3g} {row['max']:>10.3g}"
            )
    if not rows:
        lines.append("")
        lines.append("(no metrics recorded)")
    return "\n".join(lines)


def render_report(metrics_path: str | Path) -> str:
    """Load a snapshot file and render the text report."""
    return format_snapshot(*read_jsonl(metrics_path))
