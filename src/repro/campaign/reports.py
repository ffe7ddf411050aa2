"""Aggregation and table rendering over stored campaign records.

Reports work from :class:`~repro.campaign.store.TrialRecord` summaries
alone — no simulation re-runs — for every trial kind. Records are grouped
into *cells* (unique combinations of every config field except the kind's
replicate fields, such as ``seed`` and ``trace_start_step``); a tuple of
records such as a federation's ``regions`` flattens per field
(``regions.scheduler``). Replicates within a cell are aggregated as
mean/median/p95, following the paper's "averaged over repeated trials at
random trace start times" methodology.

When a baseline policy is named, each record is normalized against the
stored baseline record of the *same replicate* (identical config modulo the
kind's policy fields), with the zero guards of
:func:`~repro.simulator.metrics.compare_to_baseline`; carbon is read from
the kind's ``carbon_metric``. :func:`sweep_points` groups those normalized
records by (scheduler, value of one config field) instead of by cell: the
series behind the paper's Tables 2/3 and sweep figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np

from repro.campaign.cache import canonical_json
from repro.campaign.kinds import SCHEDULER, TrialKind
from repro.campaign.store import TrialRecord


def _flatten(config: dict[str, Any], prefix: str = "") -> dict[str, Any]:
    flat: dict[str, Any] = {}
    for key, value in config.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, prefix=f"{name}."))
        elif value and isinstance(value, list) and isinstance(value[0], dict):
            items = [_flatten(item) for item in value]
            for field_name in items[0]:
                flat[f"{name}.{field_name}"] = tuple(
                    item.get(field_name) for item in items
                )
        elif isinstance(value, list):
            flat[name] = tuple(value)
        else:
            flat[name] = value
    return flat


def _subset_id(flat: dict[str, Any], exclude: Sequence[str]) -> str:
    return canonical_json({k: v for k, v in flat.items() if k not in exclude})


def _sort_token(value: Any) -> tuple:
    if isinstance(value, bool) or value is None:
        return (2, str(value))
    if isinstance(value, (int, float)):
        return (0, float(value), "")
    return (1, 0.0, str(value))


def _shown(value: Any) -> str:
    """A cell value for a row label; a field that is equal on every record
    of a tuple (``regions.scheduler``) shows once."""
    if isinstance(value, tuple) and value and len(set(value)) == 1:
        value = value[0]
    return str(value)


def _partners(
    ok: Sequence[TrialRecord],
    flats: dict[str, dict[str, Any]],
    baseline: str,
    kind: TrialKind,
) -> dict[str, TrialRecord]:
    """Key -> the baseline record of the same replicate, where stored."""
    policy = kind.policy_fields
    by_replicate = {
        _subset_id(flats[r.key], policy): r
        for r in ok
        if flats[r.key][policy[0]] == baseline
    }
    partners = {}
    for record in ok:
        partner = by_replicate.get(_subset_id(flats[record.key], policy))
        if partner is not None:
            partners[record.key] = partner
    return partners


def _versus(
    record: TrialRecord, partner: TrialRecord, carbon_metric: str
) -> tuple[float, float, float]:
    """(carbon reduction %, ECT ratio, JCT ratio) of ``record`` against
    its baseline ``partner``."""

    def ratio(metric: str) -> float:
        base = float(partner.metrics[metric])
        return float(record.metrics[metric]) / base if base > 0 else 1.0

    return 100.0 * (1.0 - ratio(carbon_metric)), ratio("ect"), ratio("avg_jct")


@dataclass(frozen=True)
class MetricStats:
    """One metric summarized across a cell's replicates."""

    mean: float
    p50: float
    p95: float

    @classmethod
    def of(cls, values: Iterable[float]) -> "MetricStats":
        arr = np.asarray(list(values), dtype=float)
        if arr.size == 0:
            raise ValueError(
                "MetricStats.of() needs at least one value; an empty "
                "replicate cell should be dropped before aggregation"
            )
        if arr.size == 1:
            # A single-replicate cell is exact, not an interpolation
            # question: every statistic *is* the one observation.
            value = float(arr[0])
            return cls(mean=value, p50=value, p95=value)
        return cls(
            mean=float(arr.mean()),
            p50=float(np.percentile(arr, 50)),
            p95=float(np.percentile(arr, 95)),
        )


@dataclass(frozen=True)
class ReportRow:
    """One aggregated cell of a campaign report."""

    label: str
    policy: str  # the kind's first policy field: scheduler, or routing
    n: int  # replicates aggregated
    carbon: MetricStats  # reduction % if normalized, else absolute footprint
    ect: MetricStats  # ratio if normalized, else seconds
    jct: MetricStats
    normalized: bool


def campaign_report(
    records: Sequence[TrialRecord], baseline: str | None, kind: TrialKind
) -> list[ReportRow]:
    """Aggregate stored records into deterministic, sorted table rows.

    Row order depends only on cell contents (numeric-aware sort over the
    varying config fields), never on completion order — so ``campaign run``
    and a later ``campaign report`` from the store render identical tables.
    """
    ok = [r for r in records if r.ok]
    if not ok:
        return []
    flats = {r.key: _flatten(r.config) for r in ok}
    policy = kind.policy_fields[0]

    # Fields that actually vary across trials (minus replicate fields) name
    # the cells and build the row labels.
    varying = [
        field_name
        for field_name in dict.fromkeys(f for flat in flats.values() for f in flat)
        if field_name not in kind.replicate_fields
        and len({repr(flat.get(field_name)) for flat in flats.values()}) > 1
    ]
    partners = _partners(ok, flats, baseline, kind) if baseline is not None else {}

    cells: dict[str, list[TrialRecord]] = {}
    for record in ok:
        cells.setdefault(
            _subset_id(flats[record.key], kind.replicate_fields), []
        ).append(record)

    rows = []
    for members in cells.values():
        flat = flats[members[0].key]
        label_parts = []
        for field_name in varying:
            value = _shown(flat.get(field_name))
            short = field_name.removeprefix("workload.")
            label_parts.append(value if field_name == policy else f"{short}={value}")
        label = " ".join(label_parts) or str(flat[policy])

        if baseline is not None:
            normalized = [
                _versus(record, partners[record.key], kind.carbon_metric)
                for record in members
                if record.key in partners
            ]
            if not normalized:
                continue  # no stored baseline replicate to compare against
            carbon, ect, jct = zip(*normalized)
        else:
            carbon = [r.metrics[kind.carbon_metric] for r in members]
            ect = [r.metrics["ect"] for r in members]
            jct = [r.metrics["avg_jct"] for r in members]
        rows.append(
            (
                tuple(_sort_token(flat.get(f)) for f in varying),
                ReportRow(
                    label=label,
                    policy=str(flat[policy]),
                    n=len(carbon),
                    carbon=MetricStats.of(carbon),
                    ect=MetricStats.of(ect),
                    jct=MetricStats.of(jct),
                    normalized=baseline is not None,
                ),
            )
        )
    rows.sort(key=lambda pair: pair[0])
    return [row for _, row in rows]


def format_campaign_report(
    rows: Sequence[ReportRow], title: str | None = None
) -> str:
    """Fixed-width rendering of :func:`campaign_report` rows."""
    if not rows:
        return "(no completed trials in store)"
    normalized = rows[0].normalized
    lines = []
    if title:
        lines.append(title)
    if normalized:
        lines.append(
            f"{'cell':<38} {'n':>3} {'carbon_red%':>12} {'ECT':>7} {'JCT':>7}"
            f"   {'p50/p95 carbon_red%':>20}"
        )
        for row in rows:
            lines.append(
                f"{row.label:<38} {row.n:>3} {row.carbon.mean:>11.1f}% "
                f"{row.ect.mean:>7.3f} {row.jct.mean:>7.3f}   "
                f"{row.carbon.p50:>9.1f}/{row.carbon.p95:<9.1f}"
            )
    else:
        lines.append(
            f"{'cell':<38} {'n':>3} {'carbon':>12} {'ECT_s':>9} {'JCT_s':>9}"
        )
        for row in rows:
            lines.append(
                f"{row.label:<38} {row.n:>3} {row.carbon.mean:>12.0f} "
                f"{row.ect.mean:>9.1f} {row.jct.mean:>9.1f}"
            )
    return "\n".join(lines)


@dataclass(frozen=True)
class SweepPoint:
    """One policy's normalized metrics at one value of a swept config
    field, averaged over the replicates that share both."""

    policy: str  # the scheduler
    parameter: float | str  # the swept field's value; numbers as floats
    carbon_reduction_pct: float
    ect_ratio: float
    jct_ratio: float


def sweep_points(
    records: Sequence[TrialRecord], baseline: str, parameter: str
) -> list[SweepPoint]:
    """Normalized metrics per (policy, sweep value), sorted by the value.

    For scheduler campaigns. ``parameter`` is a (possibly dotted) config
    field: a number (``gamma``, ``workload.num_jobs``), a grid code, or
    ``scheduler`` itself. Points are sorted by value, numbers before
    strings; the policies at one value keep the order they are first seen
    in ``records``. Each record is normalized against the baseline record
    of its replicate, and the replicates of a point are averaged in record
    order. The baseline's own records make no point.
    """
    ok = [r for r in records if r.ok]
    flats = {r.key: _flatten(r.config) for r in ok}
    partners = _partners(ok, flats, baseline, SCHEDULER)
    grouped: dict[tuple[str, Any], list[tuple[float, float, float]]] = {}
    for record in ok:
        policy = record.scheduler_name
        if policy == baseline or record.key not in partners:
            continue
        value = flats[record.key][parameter]
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            value = float(value)
        grouped.setdefault((policy, value), []).append(
            _versus(record, partners[record.key], SCHEDULER.carbon_metric)
        )
    first_seen = list(dict.fromkeys(policy for policy, _ in grouped))
    points = []
    for policy, value in sorted(
        grouped, key=lambda pair: (_sort_token(pair[1]), first_seen.index(pair[0]))
    ):
        carbon, ect, jct = zip(*grouped[policy, value])
        points.append(
            SweepPoint(
                policy=policy,
                parameter=value,
                carbon_reduction_pct=float(np.mean(carbon)),
                ect_ratio=float(np.mean(ect)),
                jct_ratio=float(np.mean(jct)),
            )
        )
    return points
