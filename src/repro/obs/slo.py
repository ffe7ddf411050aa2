"""Declarative SLO rules evaluated at service epoch boundaries.

An :class:`SloRule` names one measurable quantity — either a windowed
stream metric folded by the PR-8
:class:`~repro.simulator.streaming.StreamingAggregator` (``avg_jct``,
``carbon_per_job``, ``preemption_rate``, ...) or a live registry
instrument (``gauge:stream.jobs_active``, ``p95:engine.select_schedulable``)
— plus a threshold and a direction. The :class:`SloEvaluator` re-checks
every rule at each :class:`~repro.stream.service.ServiceRunner` epoch
boundary and emits a structured :class:`SloAlert` on every state
*transition*: one ``firing`` record when a rule starts violating, one
``resolved`` record when it stops. Steady states are silent, so the alert
log stays proportional to incidents, not epochs.

Windowed metrics aggregate over the rule's last ``window`` stream windows
(simulated time), so a rule like ``avg_jct>120@3`` reads "the job-weighted
average JCT over the last three windows exceeds 120 s". A metric with no
data yet (no completed jobs, unknown instrument) evaluates to *unknown*
and leaves the rule's state unchanged — absence of evidence never fires or
resolves an alert.

Like every ``repro.obs`` probe, evaluation only **reads** simulation
state; it never touches RNG streams or event ordering. The optional
degradation hook (``ServiceRunner`` pausing admission while an alert
fires) is the one sanctioned feedback path, and it is off unless
explicitly requested — the fingerprint-neutrality suite pins that
evaluation alone keeps all nine pinned scenarios byte-identical.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from repro.ioutil import atomic_write_text
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    _utc_now,
)

#: Default alert-log filename next to a run's other obs artifacts.
ALERTS_FILENAME = "alerts.jsonl"

#: Windowed stream metrics an SLO rule may name (no prefix). Sums are over
#: the rule's trailing windows; ratios are computed from the summed parts.
WINDOW_SUM_METRICS = (
    "arrivals",
    "jobs_completed",
    "tasks_completed",
    "tasks_preempted",
    "busy_s",
    "carbon",
)
WINDOW_RATIO_METRICS = ("avg_jct", "carbon_per_job", "preemption_rate")
WINDOW_METRICS = WINDOW_SUM_METRICS + WINDOW_RATIO_METRICS

#: Registry-instrument prefixes (``<prefix>:<instrument name>``).
REGISTRY_PREFIXES = ("counter", "gauge", "mean", "max", "min", "p50", "p95", "p99")

_RULE_SYNTAX = re.compile(
    r"^\s*(?:(?P<name>[\w.-]+)\s*=\s*)?"
    r"(?P<metric>[\w.:-]+)\s*"
    r"(?P<op>[<>])\s*"
    r"(?P<threshold>[-+0-9.eE]+)"
    r"(?:\s*@\s*(?P<window>\d+))?\s*$"
)


@dataclass(frozen=True)
class SloRule:
    """One service-level objective: ``metric`` must stay on the right side
    of ``threshold``.

    ``direction="above"`` means the rule *fires when the value is above*
    the threshold (an upper bound being broken); ``"below"`` fires when the
    value drops under it (a lower bound, e.g. throughput). ``window`` is
    how many trailing stream windows a windowed metric aggregates over;
    registry metrics ignore it (instruments are already cumulative).
    """

    name: str
    metric: str
    threshold: float
    direction: str = "above"
    window: int = 1

    def __post_init__(self) -> None:
        if self.direction not in ("above", "below"):
            raise ValueError(
                f"direction must be 'above' or 'below', got {self.direction!r}"
            )
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if ":" in self.metric:
            prefix = self.metric.split(":", 1)[0]
            if prefix not in REGISTRY_PREFIXES:
                raise ValueError(
                    f"unknown registry prefix {prefix!r}; expected one of "
                    + ", ".join(REGISTRY_PREFIXES)
                )
        elif self.metric not in WINDOW_METRICS:
            raise ValueError(
                f"unknown window metric {self.metric!r}; expected one of "
                + ", ".join(WINDOW_METRICS)
                + " or a registry metric like 'gauge:stream.jobs_active'"
            )

    @classmethod
    def parse(cls, text: str) -> "SloRule":
        """Compact rule syntax for the CLI: ``[name=]metric{>|<}threshold[@window]``.

        ``>`` reads "alert when above", ``<`` "alert when below":
        ``avg_jct>120@3``, ``slow-drain=gauge:stream.jobs_active>500``,
        ``throughput=jobs_completed<10@6``.
        """
        match = _RULE_SYNTAX.match(text)
        if match is None:
            raise ValueError(
                f"cannot parse SLO rule {text!r}; expected "
                "[name=]metric{>|<}threshold[@window]"
            )
        metric = match.group("metric")
        return cls(
            name=match.group("name") or metric,
            metric=metric,
            threshold=float(match.group("threshold")),
            direction="above" if match.group("op") == ">" else "below",
            window=int(match.group("window") or 1),
        )

    def violated(self, value: float) -> bool:
        if self.direction == "above":
            return value > self.threshold
        return value < self.threshold

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "metric": self.metric,
            "threshold": self.threshold,
            "direction": self.direction,
            "window": self.window,
        }


@dataclass(frozen=True)
class SloAlert:
    """One rule state transition, keyed by the simulated clock."""

    rule: str
    metric: str
    state: str  # "firing" | "resolved"
    value: float
    threshold: float
    direction: str
    window: int
    epoch: int
    sim_time: float
    wall: str = field(default_factory=_utc_now)

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": "alert",
            "rule": self.rule,
            "metric": self.metric,
            "state": self.state,
            "value": self.value,
            "threshold": self.threshold,
            "direction": self.direction,
            "window": self.window,
            "epoch": self.epoch,
            "sim_time": self.sim_time,
            "wall": self.wall,
        }


def _find_instrument(
    registry: MetricsRegistry, name: str
) -> Counter | Gauge | Histogram | None:
    """Look up an instrument without creating it (lookups must not grow
    the registry snapshot)."""
    for instrument in registry:
        if instrument.name == name:
            return instrument
    return None


def _registry_value(
    registry: MetricsRegistry | None, metric: str
) -> float | None:
    prefix, _, name = metric.partition(":")
    if registry is None:
        return None
    instrument = _find_instrument(registry, name)
    if instrument is None:
        return None
    if prefix in ("counter", "gauge"):
        if isinstance(instrument, Histogram):
            return None
        return float(instrument.value)
    if not isinstance(instrument, Histogram) or not instrument.count:
        return None
    if prefix == "mean":
        return instrument.mean
    if prefix == "max":
        return instrument.max
    if prefix == "min":
        return instrument.min
    return instrument.quantile(float(prefix[1:]) / 100.0)


def window_metric_value(
    metric: str, windows: Sequence[dict[str, Any]]
) -> float | None:
    """Aggregate one windowed metric over trailing window snapshots.

    Returns ``None`` — *unknown*, not zero — when the metric's denominator
    is empty (no jobs for ``avg_jct``/``carbon_per_job``, no tasks for
    ``preemption_rate``) or no windows exist yet.
    """
    if not windows:
        return None
    if metric in WINDOW_SUM_METRICS:
        return float(sum(w[metric] for w in windows))
    jobs = sum(w["jobs_completed"] for w in windows)
    if metric == "avg_jct":
        if not jobs:
            return None
        weighted = sum(w["avg_jct"] * w["jobs_completed"] for w in windows)
        return weighted / jobs
    if metric == "carbon_per_job":
        if not jobs:
            return None
        return float(sum(w["carbon"] for w in windows)) / jobs
    # preemption_rate
    tasks = sum(w["tasks_completed"] for w in windows)
    if not tasks:
        return None
    return float(sum(w["tasks_preempted"] for w in windows)) / tasks


def rule_value(
    rule: SloRule,
    windows: Sequence[dict[str, Any]] | None,
    registry: MetricsRegistry | None,
) -> float | None:
    """The rule's current measurement, or ``None`` when unknowable."""
    if ":" in rule.metric:
        return _registry_value(registry, rule.metric)
    if windows is None:
        return None
    return window_metric_value(rule.metric, windows[-rule.window :])


class SloEvaluator:
    """Track rule states across epochs and emit alerts on transitions.

    ``on_alert`` (if given) is invoked synchronously with each
    :class:`SloAlert` — this is where a
    :class:`~repro.stream.service.ServiceRunner` hooks its degradation
    action. All alerts ever emitted accumulate in :attr:`alerts` for the
    end-of-run artifact (:meth:`write_alerts`).
    """

    def __init__(
        self,
        rules: Iterable[SloRule],
        on_alert: Callable[[SloAlert], None] | None = None,
    ) -> None:
        self.rules = list(rules)
        names = [rule.name for rule in self.rules]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO rule names in {names}")
        self.on_alert = on_alert
        self.alerts: list[SloAlert] = []
        self._firing: set[str] = set()
        self.evaluations = 0

    @property
    def firing(self) -> frozenset[str]:
        """Names of the rules currently in violation."""
        return frozenset(self._firing)

    def evaluate(
        self,
        epoch: int,
        sim_time: float,
        windows: Sequence[dict[str, Any]] | None = None,
        registry: MetricsRegistry | None = None,
    ) -> list[SloAlert]:
        """Re-check every rule; returns the alerts emitted this epoch."""
        self.evaluations += 1
        emitted: list[SloAlert] = []
        for rule in self.rules:
            value = rule_value(rule, windows, registry)
            if value is None:
                continue  # unknown: hold the current state
            violated = rule.violated(value)
            was_firing = rule.name in self._firing
            if violated == was_firing:
                continue
            if violated:
                self._firing.add(rule.name)
            else:
                self._firing.discard(rule.name)
            alert = SloAlert(
                rule=rule.name,
                metric=rule.metric,
                state="firing" if violated else "resolved",
                value=value,
                threshold=rule.threshold,
                direction=rule.direction,
                window=rule.window,
                epoch=epoch,
                sim_time=sim_time,
            )
            emitted.append(alert)
            self.alerts.append(alert)
            if self.on_alert is not None:
                self.on_alert(alert)
        return emitted

    def write_alerts(
        self, path: str | Path, meta: dict[str, Any] | None = None
    ) -> Path:
        """Serialize the alert log: a meta header line (rules included),
        then one line per alert. Atomic, like every obs artifact."""
        header = {
            "type": "meta",
            "generated_at": _utc_now(),
            "rules": [rule.to_dict() for rule in self.rules],
            "evaluations": self.evaluations,
            "firing": sorted(self._firing),
            **(meta or {}),
        }
        lines = [json.dumps(header, sort_keys=True)]
        lines += [
            json.dumps(alert.to_dict(), sort_keys=True)
            for alert in self.alerts
        ]
        return atomic_write_text(Path(path), "\n".join(lines) + "\n")


def read_alerts(
    path: str | Path,
) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """Load an alert log: ``(meta, alert rows)``."""
    meta: dict[str, Any] = {}
    rows: list[dict[str, Any]] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        row = json.loads(line)
        if row.get("type") == "meta":
            meta = row
        elif row.get("type") == "alert":
            rows.append(row)
    return meta, rows


def format_alerts(
    meta: dict[str, Any], rows: list[dict[str, Any]]
) -> list[str]:
    """Human-readable alert lines for ``repro obs report``."""
    lines = ["alerts"]
    rules = meta.get("rules", [])
    if rules:
        lines.append(f"  rules evaluated       {len(rules)}")
    firing = meta.get("firing", [])
    lines.append(
        "  firing at exit        "
        + (", ".join(firing) if firing else "none")
    )
    if not rows:
        lines.append("  transitions           none")
        return lines
    lines.append(f"  transitions           {len(rows)}")
    for row in rows:
        op = ">" if row["direction"] == "above" else "<"
        lines.append(
            f"    [epoch {row['epoch']:>4d} t={row['sim_time']:>10.0f}s] "
            f"{row['state']:<8s} {row['rule']}: "
            f"{row['value']:.3f} {op} {row['threshold']:g}"
        )
    return lines


__all__ = [
    "ALERTS_FILENAME",
    "REGISTRY_PREFIXES",
    "SloAlert",
    "SloEvaluator",
    "SloRule",
    "WINDOW_METRICS",
    "format_alerts",
    "read_alerts",
    "rule_value",
    "window_metric_value",
]
