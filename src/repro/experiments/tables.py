"""The paper's tables: published values, Table 1 rows and renderers.

Table 1 is trace statistics, computed here. Tables 2 and 3 are normalized
sweeps, so they run as campaigns: :func:`repro.campaign.spec.table_spec`
derives each one's spec from its preset, and
:func:`repro.campaign.executor.run_table` runs it into the rows
:func:`format_metric_table` renders. Cluster size, batch size and trace
length are reduced (the paper uses K=100 executors and 3-year traces), but
normalization and averaging follow the paper, so the *shape* — who wins,
by roughly what factor — is comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.carbon.grids import GRID_CODES, GRID_SPECS, synthesize_trace
from repro.carbon.trace import TraceStats
from repro.simulator.metrics import NormalizedMetrics

#: Table 1 of the paper, for side-by-side display with measured stats.
PAPER_TABLE1: dict[str, tuple[float, float, float, float]] = {
    code: (spec.minimum, spec.maximum, spec.mean, spec.coeff_var)
    for code, spec in GRID_SPECS.items()
}

#: Table 2 (prototype, normalized to the Spark/Kubernetes default).
PAPER_TABLE2: dict[str, tuple[float, float, float]] = {
    # scheduler: (carbon reduction %, avg ECT, avg JCT)
    "k8s-default": (0.0, 1.0, 1.0),
    "decima": (1.2, 0.857, 0.852),
    "cap-k8s-default": (24.7, 1.126, 1.996),
    "pcaps": (32.9, 1.013, 1.381),
}

#: Table 3 (simulator, normalized to Spark standalone FIFO).
PAPER_TABLE3: dict[str, tuple[float, float, float]] = {
    "fifo": (0.0, 1.0, 1.0),
    "weighted-fair": (12.1, 0.972, 0.652),
    "decima": (21.5, 0.970, 0.654),
    "greenhadoop": (8.2, 1.077, 1.918),
    "cap-fifo": (22.7, 1.108, 2.274),
    "cap-weighted-fair": (34.2, 1.011, 1.217),
    "cap-decima": (31.1, 1.061, 1.479),
    "pcaps": (39.7, 1.045, 1.436),
}


@dataclass(frozen=True)
class Table1Row:
    grid: str
    paper: tuple[float, float, float, float]
    measured: TraceStats


def table1_rows(hours: int = 26_304, seed: int = 0) -> list[Table1Row]:
    """Table 1: synthetic-trace statistics next to the paper's values."""
    rows = []
    for offset, code in enumerate(GRID_CODES):
        trace = synthesize_trace(code, hours=hours, seed=seed + offset)
        rows.append(
            Table1Row(grid=code, paper=PAPER_TABLE1[code], measured=trace.stats())
        )
    return rows


def format_metric_table(
    rows: dict[str, NormalizedMetrics],
    paper: dict[str, tuple[float, float, float]] | None = None,
) -> str:
    """Render a Table 2/3-style comparison as fixed-width text."""
    lines = [
        f"{'scheduler':<18} {'carbon_red%':>12} {'ECT':>7} {'JCT':>7}"
        + ("   (paper: red%/ECT/JCT)" if paper else "")
    ]
    for name, m in rows.items():
        line = (
            f"{name:<18} {m.carbon_reduction_pct:>11.1f}% "
            f"{m.ect_ratio:>7.3f} {m.jct_ratio:>7.3f}"
        )
        if paper and name in paper:
            p = paper[name]
            line += f"   ({p[0]:.1f}% / {p[1]:.3f} / {p[2]:.3f})"
        lines.append(line)
    return "\n".join(lines)


def format_table1(rows: list[Table1Row]) -> str:
    """Render Table 1 (paper vs measured trace statistics)."""
    lines = [
        f"{'grid':<7} {'min':>6} {'max':>6} {'mean':>7} {'cov':>6}"
        f"   {'paper-min':>9} {'paper-max':>9} {'paper-mean':>10} {'paper-cov':>9}"
    ]
    for row in rows:
        s = row.measured
        p = row.paper
        lines.append(
            f"{row.grid:<7} {s.minimum:>6.0f} {s.maximum:>6.0f} {s.mean:>7.1f} "
            f"{s.coeff_var:>6.3f}   {p[0]:>9.0f} {p[1]:>9.0f} {p[2]:>10.0f} "
            f"{p[3]:>9.3f}"
        )
    return "\n".join(lines)


def table1_error_summary(rows: list[Table1Row]) -> dict[str, float]:
    """Mean absolute relative error of the synthetic traces vs Table 1."""
    mean_errs, cov_errs = [], []
    for row in rows:
        paper_min, paper_max, paper_mean, paper_cov = row.paper
        mean_errs.append(abs(row.measured.mean - paper_mean) / paper_mean)
        cov_errs.append(abs(row.measured.coeff_var - paper_cov) / max(paper_cov, 1e-9))
    return {
        "mean_rel_err": float(np.mean(mean_errs)),
        "cov_rel_err": float(np.mean(cov_errs)),
    }
