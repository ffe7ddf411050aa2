"""Figure 12: CAP-FIFO B sweep in the simulator (standalone mode).

Compared with Fig. 11, CAP-FIFO sacrifices more ECT for the same or lower
carbon savings, and the completion-time hit starts at milder settings.
"""

from repro.campaign import CampaignSpec, run_sweep
from repro.experiments.runner import ExperimentConfig
from repro.workloads.batch import WorkloadSpec

from _report import emit, run_once

QUOTAS = (4, 8, 14, 22, 32)  # of K=40


def _spec():
    config = ExperimentConfig(
        grid="DE",
        mode="standalone",
        num_executors=40,
        workload=WorkloadSpec(family="tpch", num_jobs=25, mean_interarrival=45.0),
        seed=5,
    )
    return CampaignSpec(
        "fig12-bench", config,
        axes={"scheduler": ("cap-fifo",), "cap_min_quota": QUOTAS},
        baseline="fifo",
    )


def test_fig12_cap_b_sweep_simulator(benchmark):
    points = run_once(benchmark, run_sweep, _spec(), "cap_min_quota")
    lines = [f"{'B':>5} {'carbon_red%':>12} {'ECT':>7} {'JCT':>7}"]
    for p in points:
        lines.append(
            f"{p.parameter:>5.0f} {p.carbon_reduction_pct:>11.1f}% "
            f"{p.ect_ratio:>7.3f} {p.jct_ratio:>7.3f}"
        )
    emit("Figure 12 — CAP-FIFO B sweep (simulator, DE)", lines)
    benchmark.extra_info["points"] = [
        (p.parameter, round(p.carbon_reduction_pct, 2), round(p.ect_ratio, 3))
        for p in points
    ]
    assert points[0].carbon_reduction_pct > points[-1].carbon_reduction_pct
    # The most aggressive setting pays measurable ECT.
    assert points[0].ect_ratio >= points[-1].ect_ratio - 0.02
