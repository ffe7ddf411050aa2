"""Figure 11: PCAPS γ sweep in the simulator (standalone mode, vs FIFO).

Same content as Fig. 7 but against the Spark-standalone FIFO baseline, as
in the simulator experiments.
"""

from repro.campaign import CampaignSpec, run_sweep
from repro.experiments.runner import ExperimentConfig
from repro.workloads.batch import WorkloadSpec

from _report import emit, run_once

GAMMAS = (0.1, 0.25, 0.5, 0.75, 0.9)


def _spec():
    config = ExperimentConfig(
        grid="DE",
        mode="standalone",
        num_executors=40,
        workload=WorkloadSpec(family="tpch", num_jobs=25, mean_interarrival=45.0),
        seed=5,
    )
    return CampaignSpec(
        "fig11-bench", config,
        axes={"scheduler": ("pcaps",), "gamma": GAMMAS}, baseline="fifo",
    )


def test_fig11_pcaps_gamma_sweep_simulator(benchmark):
    points = run_once(benchmark, run_sweep, _spec(), "gamma")
    lines = [f"{'gamma':>6} {'carbon_red%':>12} {'ECT':>7} {'JCT':>7}"]
    for p in points:
        lines.append(
            f"{p.parameter:>6.2f} {p.carbon_reduction_pct:>11.1f}% "
            f"{p.ect_ratio:>7.3f} {p.jct_ratio:>7.3f}"
        )
    emit("Figure 11 — PCAPS γ sweep (simulator, vs FIFO, DE)", lines)
    benchmark.extra_info["points"] = [
        (p.parameter, round(p.carbon_reduction_pct, 2), round(p.ect_ratio, 3))
        for p in points
    ]
    assert points[-1].carbon_reduction_pct > points[0].carbon_reduction_pct
    assert max(p.carbon_reduction_pct for p in points) > 20.0
