"""Figure 10: per-grid carbon reduction and ECT (prototype mode).

PCAPS, CAP, and Decima against the Spark/Kubernetes default across all six
grids. The paper's relationship: more variable grids (higher CoV — more
renewables) admit more carbon reduction; flat ZA admits almost none.
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


def test_fig10_grid_comparison_prototype(benchmark):
    rows, cov = run_once(
        benchmark, _grid_sweep,
        "kubernetes", ("decima", "cap-k8s-default", "pcaps"), "k8s-default",
    )
    lines = [
        f"{'grid':<7} {'cov':>6} {'scheduler':<18} {'carbon_red%':>12} {'ECT':>7}"
    ]
    for r in rows:
        lines.append(
            f"{r.parameter:<7} {cov[r.parameter]:>6.3f} {r.policy:<18} "
            f"{r.carbon_reduction_pct:>11.1f}% {r.ect_ratio:>7.3f}"
        )
    emit("Figure 10 — per-grid behaviour (prototype mode)", lines)

    pcaps = {r.parameter: r for r in rows if r.policy == "pcaps"}
    covs = np.array([cov[grid] for grid in pcaps])
    reductions = np.array([r.carbon_reduction_pct for r in pcaps.values()])
    correlation = float(np.corrcoef(covs, reductions)[0, 1])
    benchmark.extra_info["cov_reduction_correlation"] = round(correlation, 3)
    # Variability begets savings: positive correlation, ZA near the bottom.
    assert correlation > 0.2
    assert pcaps["ZA"].carbon_reduction_pct <= max(
        r.carbon_reduction_pct for r in pcaps.values()
    ) - 5.0
