"""Figures 16/17: impact of the total number of jobs (simulator + prototype).

Metrics for PCAPS, CAP-FIFO (or CAP), and Decima relative to the baseline as
the batch grows. The paper finds relative orderings stable, with carbon the
most stable metric, and results "converging" for larger batches.
"""

import numpy as np

from repro.campaign import CampaignSpec, run_sweep
from repro.experiments.runner import ExperimentConfig
from repro.workloads.batch import WorkloadSpec

from _report import emit, run_once

COUNTS = (6, 12, 25, 50)


def _jobcount_sweep(schedulers, baseline, mode):
    """Each scheduler against ``baseline`` at every batch size (DE grid,
    25 executors)."""
    config = ExperimentConfig(
        grid="DE",
        mode=mode,
        num_executors=25,
        per_job_cap=6,
        workload=WorkloadSpec(family="tpch"),
        seed=6,
    )
    spec = CampaignSpec(
        f"fig16-17-{mode}", config,
        axes={"scheduler": schedulers, "workload.num_jobs": COUNTS},
        baseline=baseline,
    )
    return run_sweep(spec, "workload.num_jobs")


def _format(rows):
    lines = [
        f"{'jobs':>5} {'scheduler':<18} {'carbon_red%':>12} {'ECT':>7} {'JCT':>7}"
    ]
    for r in rows:
        lines.append(
            f"{r.parameter:>5.0f} {r.policy:<18} "
            f"{r.carbon_reduction_pct:>11.1f}% {r.ect_ratio:>7.3f} "
            f"{r.jct_ratio:>7.3f}"
        )
    return lines


def test_fig16_jobcount_sweep_simulator(benchmark):
    rows = run_once(
        benchmark, _jobcount_sweep,
        ("decima", "cap-fifo", "pcaps"), "fifo", "standalone",
    )
    emit("Figure 16 — job-count sweep (simulator)", _format(rows))
    pcaps = [r for r in rows if r.policy == "pcaps"]
    benchmark.extra_info["pcaps_carbon_by_count"] = {
        int(r.parameter): round(r.carbon_reduction_pct, 2) for r in pcaps
    }
    # PCAPS keeps a positive carbon reduction at every batch size.
    assert all(r.carbon_reduction_pct > 0 for r in pcaps)


def test_fig17_jobcount_sweep_prototype(benchmark):
    rows = run_once(
        benchmark, _jobcount_sweep,
        ("decima", "cap-k8s-default", "pcaps"), "k8s-default", "kubernetes",
    )
    emit("Figure 17 — job-count sweep (prototype mode)", _format(rows))
    pcaps = [r for r in rows if r.policy == "pcaps"]
    assert all(r.carbon_reduction_pct > -5.0 for r in pcaps)
    # Carbon is the most stable metric across batch sizes (paper A.2.1):
    carbon_spread = np.ptp([r.carbon_reduction_pct / 100 for r in pcaps])
    jct_spread = np.ptp([r.jct_ratio - 1 for r in pcaps])
    benchmark.extra_info["carbon_spread"] = round(float(carbon_spread), 3)
    benchmark.extra_info["jct_spread"] = round(float(jct_spread), 3)
