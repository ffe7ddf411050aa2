"""Table 3: simulator top-line results (standalone mode, 6 grids).

All eight schedulers normalized to Spark-standalone FIFO, averaged over the
six grids. Paper: PCAPS -39.7% at ECT 1.045 / JCT 1.436; CAP-FIFO -22.7%;
Decima -21.5% at JCT 0.654; GreenHadoop -8.2%.

Runs the ``table3`` campaign preset at trace offset 0
(:func:`repro.campaign.table_spec`), inline.
"""

from repro.campaign import run_table, table_spec
from repro.experiments.tables import PAPER_TABLE3, format_metric_table

from _report import emit, run_once


def test_table3_simulator_topline(benchmark):
    rows = run_once(benchmark, run_table, table_spec("table3"))
    emit(
        "Table 3 — simulator (standalone mode), normalized to FIFO",
        [format_metric_table(rows, PAPER_TABLE3)],
    )
    for name, m in rows.items():
        benchmark.extra_info[name] = {
            "carbon_red_pct": round(m.carbon_reduction_pct, 2),
            "ect": round(m.ect_ratio, 3),
            "jct": round(m.jct_ratio, 3),
        }
    # Shape assertions from the paper's Table 3:
    assert rows["decima"].jct_ratio < 1.0  # learned scheduler halves JCT
    assert rows["weighted-fair"].jct_ratio < 1.0
    assert rows["greenhadoop"].carbon_reduction_pct > 0.0
    assert rows["pcaps"].carbon_reduction_pct > 20.0
    assert (
        rows["pcaps"].carbon_reduction_pct
        >= rows["cap-fifo"].carbon_reduction_pct
    )
    assert rows["cap-decima"].carbon_reduction_pct > rows[
        "decima"
    ].carbon_reduction_pct
