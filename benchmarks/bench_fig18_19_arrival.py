"""Figures 18/19: impact of the Poisson interarrival time.

Smaller interarrival = heavier cluster load. The paper finds intelligent
schedulers (PCAPS, Decima) gain the most over FIFO under heavy load, where
FIFO's queue build-up is worst.
"""

from repro.campaign import CampaignSpec, run_sweep
from repro.experiments.runner import ExperimentConfig
from repro.workloads.batch import WorkloadSpec

from _report import emit, run_once

GAPS = (10.0, 20.0, 45.0, 90.0)


def _interarrival_sweep(schedulers, baseline, mode):
    """Each scheduler against ``baseline`` at every mean interarrival (DE
    grid, 25 executors, 20 jobs)."""
    config = ExperimentConfig(
        grid="DE",
        mode=mode,
        num_executors=25,
        per_job_cap=6,
        workload=WorkloadSpec(family="tpch", num_jobs=20),
        seed=6,
    )
    spec = CampaignSpec(
        f"fig18-19-{mode}", config,
        axes={"scheduler": schedulers, "workload.mean_interarrival": GAPS},
        baseline=baseline,
    )
    return run_sweep(spec, "workload.mean_interarrival")


def _format(rows):
    lines = [
        f"{'gap_s':>6} {'scheduler':<18} {'carbon_red%':>12} {'ECT':>7} {'JCT':>7}"
    ]
    for r in rows:
        lines.append(
            f"{r.parameter:>6.0f} {r.policy:<18} "
            f"{r.carbon_reduction_pct:>11.1f}% {r.ect_ratio:>7.3f} "
            f"{r.jct_ratio:>7.3f}"
        )
    return lines


def test_fig18_interarrival_sweep_simulator(benchmark):
    rows = run_once(
        benchmark, _interarrival_sweep,
        ("decima", "cap-fifo", "pcaps"), "fifo", "standalone",
    )
    emit("Figure 18 — interarrival sweep (simulator)", _format(rows))
    decima = {r.parameter: r for r in rows if r.policy == "decima"}
    benchmark.extra_info["decima_jct_by_gap"] = {
        g: round(decima[g].jct_ratio, 3) for g in GAPS
    }
    # Decima's JCT advantage over FIFO is largest under heavy load.
    assert decima[GAPS[0]].jct_ratio <= decima[GAPS[-1]].jct_ratio + 0.05


def test_fig19_interarrival_sweep_prototype(benchmark):
    rows = run_once(
        benchmark, _interarrival_sweep,
        ("decima", "cap-k8s-default", "pcaps"), "k8s-default", "kubernetes",
    )
    emit("Figure 19 — interarrival sweep (prototype mode)", _format(rows))
    pcaps = [r for r in rows if r.policy == "pcaps"]
    assert all(r.carbon_reduction_pct > -5.0 for r in pcaps)
