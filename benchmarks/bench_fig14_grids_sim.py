"""Figure 14: per-grid carbon reduction and ECT (simulator mode, vs FIFO).

Same analysis as Fig. 10 but in Spark-standalone mode against FIFO, where
Decima's carbon reduction is itself substantial (the hoarding-FIFO effect
of Appendix A.1.2).
"""

import numpy as np

from repro.campaign import CampaignSpec, run_sweep
from repro.carbon.grids import GRID_CODES, synthesize_trace
from repro.experiments.runner import ExperimentConfig
from repro.workloads.batch import WorkloadSpec

from _report import emit, run_once


def _grid_sweep(mode, schedulers, baseline):
    """Per-grid points in Table 1's grid order, schedulers in the given
    order within a grid, plus each grid's trace coefficient of variation."""
    config = ExperimentConfig(
        mode=mode,
        num_executors=24,
        per_job_cap=6,
        workload=WorkloadSpec(family="tpch", num_jobs=15),
        seed=2,
    )
    spec = CampaignSpec(
        f"fig-grids-{mode}", config,
        axes={"scheduler": schedulers, "grid": GRID_CODES}, baseline=baseline,
    )
    points = sorted(
        run_sweep(spec, "grid"), key=lambda p: GRID_CODES.index(p.parameter)
    )
    covs = {
        grid: synthesize_trace(grid, hours=2000, seed=0).stats().coeff_var
        for grid in GRID_CODES
    }
    return points, covs


def test_fig14_grid_comparison_simulator(benchmark):
    rows, cov = run_once(
        benchmark, _grid_sweep, "standalone", ("decima", "cap-fifo", "pcaps"), "fifo"
    )
    lines = [
        f"{'grid':<7} {'cov':>6} {'scheduler':<10} {'carbon_red%':>12} {'ECT':>7}"
    ]
    for r in rows:
        lines.append(
            f"{r.parameter:<7} {cov[r.parameter]:>6.3f} {r.policy:<10} "
            f"{r.carbon_reduction_pct:>11.1f}% {r.ect_ratio:>7.3f}"
        )
    emit("Figure 14 — per-grid behaviour (simulator mode)", lines)

    pcaps = [r for r in rows if r.policy == "pcaps"]
    decima = {r.parameter: r for r in rows if r.policy == "decima"}
    covs = np.array([cov[r.parameter] for r in pcaps])
    reductions = np.array([r.carbon_reduction_pct for r in pcaps])
    correlation = float(np.corrcoef(covs, reductions)[0, 1])
    benchmark.extra_info["cov_reduction_correlation"] = round(correlation, 3)
    # PCAPS's reduction grows with grid variability...
    assert correlation > 0.2
    # ...and in the simulator Decima's own reduction is substantial (>5%)
    # because FIFO hoards executors (Appendix A.1.2).
    assert np.mean([r.carbon_reduction_pct for r in decima.values()]) > 5.0
