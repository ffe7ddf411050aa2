"""Table 2: prototype-style top-line results (Kubernetes mode, 6 grids).

Schedulers: Spark/Kubernetes default, Decima, CAP (over the default), PCAPS,
normalized to the default and averaged over the six grids. Paper: PCAPS
-32.9% carbon at ECT 1.013; CAP -24.7% at ECT 1.126.

Runs the ``table2`` campaign preset at trace offset 0
(:func:`repro.campaign.table_spec`), inline.
"""

from repro.campaign import run_table, table_spec
from repro.experiments.tables import PAPER_TABLE2, format_metric_table

from _report import emit, run_once


def test_table2_prototype_topline(benchmark):
    rows = run_once(benchmark, run_table, table_spec("table2"))
    emit(
        "Table 2 — prototype (Kubernetes mode), normalized to default",
        [format_metric_table(rows, PAPER_TABLE2)],
    )
    for name, m in rows.items():
        benchmark.extra_info[name] = {
            "carbon_red_pct": round(m.carbon_reduction_pct, 2),
            "ect": round(m.ect_ratio, 3),
            "jct": round(m.jct_ratio, 3),
        }
    # Shape: both carbon-aware schedulers reduce carbon; PCAPS is not
    # dominated by CAP; Decima alone is roughly carbon-neutral. Magnitudes
    # are smaller than the paper's 100-executor prototype (see "Scale" in
    # docs/benchmarks.md).
    assert rows["pcaps"].carbon_reduction_pct > 5.0
    assert rows["cap-k8s-default"].carbon_reduction_pct > 3.0
    assert (
        rows["pcaps"].carbon_reduction_pct
        > rows["cap-k8s-default"].carbon_reduction_pct - 3.0
    )
    assert abs(rows["decima"].carbon_reduction_pct) < 15.0
