"""Series producers for the paper's figures that are not normalized sweeps.

Each function regenerates the data behind one figure (we print/return series
rather than render images: the benchmark harness reports the same rows the
paper plots), at laptop scale. These figures read what a campaign's store
record does not keep: full carbon traces (Fig. 5), executor timelines
(Figs. 6/15), per-job carbon (Fig. 9) and select latency (Fig. 20). The
normalized sweeps behind Figs. 7/8 and 10–14/16–19 run as campaign specs
through :func:`repro.campaign.executor.run_sweep`; ``docs/benchmarks.md``
maps each figure to its bench.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.carbon.grids import GRID_CODES, synthesize_trace
from repro.experiments.runner import (
    ExperimentConfig,
    run_experiment,
    run_matchup,
)
from repro.simulator.metrics import ExperimentResult
from repro.simulator.trace import busy_executor_series, executor_timeline
from repro.workloads.batch import WorkloadSpec

# ----------------------------------------------------------------------
# Fig. 5 — carbon-intensity snapshots
# ----------------------------------------------------------------------
def fig5_series(
    hours: int = 48, start_step: int = 360, seed: int = 0
) -> dict[str, np.ndarray]:
    """48-hour carbon series for all six grids (Fig. 5)."""
    series = {}
    for offset, code in enumerate(GRID_CODES):
        trace = synthesize_trace(code, hours=start_step + hours, seed=seed + offset)
        series[code] = trace.values[start_step : start_step + hours].copy()
    return series


# ----------------------------------------------------------------------
# Fig. 6 — executor usage over time on a small cluster
# ----------------------------------------------------------------------
@dataclass
class Fig6Data:
    """Executor-occupancy grids for the three compared schedulers."""

    timelines: dict[str, np.ndarray]  # scheduler -> [executors x time buckets]
    carbon: np.ndarray  # per-bucket carbon intensity
    resolution: float
    results: dict[str, ExperimentResult]


def fig6_executor_usage(
    num_executors: int = 5,
    num_jobs: int = 20,
    grid: str = "DE",
    seed: int = 3,
    resolution: float = 10.0,
) -> Fig6Data:
    """Fig. 6: Decima vs PCAPS vs CAP-FIFO executor timelines (DE grid)."""
    config = ExperimentConfig(
        grid=grid,
        num_executors=num_executors,
        workload=WorkloadSpec(
            family="tpch", num_jobs=num_jobs, tpch_scales=(2, 10)
        ),
        seed=seed,
    )
    results = run_matchup(["decima", "pcaps", "cap-fifo"], config)
    horizon = max(r.ect for r in results.values())
    timelines = {
        name: executor_timeline(r.trace, resolution=resolution)
        for name, r in results.items()
    }
    trace = results["decima"].carbon_trace
    buckets = int(np.ceil(horizon / resolution)) + 1
    carbon = np.array(
        [trace.intensity_at(i * resolution) for i in range(buckets)]
    )
    return Fig6Data(
        timelines=timelines, carbon=carbon, resolution=resolution, results=results
    )


# ----------------------------------------------------------------------
# Fig. 9 — per-job JCT vs per-job carbon quadrants
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PerJobPoint:
    scheduler: str
    trial: int
    jct_ratio: float
    carbon_ratio: float


def fig9_perjob_trials(
    num_trials: int = 8,
    config: ExperimentConfig | None = None,
) -> tuple[list[PerJobPoint], dict[str, dict[str, float]]]:
    """Fig. 9: per-trial average JCT and per-job carbon, both vs default.

    Returns the scatter points plus per-scheduler quadrant percentages
    (fraction of trials in each of the four quadrants around (1, 1)).
    """
    base_config = config or ExperimentConfig(
        mode="kubernetes",
        num_executors=24,
        per_job_cap=6,
        workload=WorkloadSpec(family="tpch", num_jobs=15),
    )
    points: list[PerJobPoint] = []
    for trial in range(num_trials):
        trial_config = replace(
            base_config,
            seed=trial,
            trace_start_step=trial * 977 % 20_000,
        )
        results = run_matchup(
            ["k8s-default", "pcaps", "cap-k8s-default"], trial_config
        )
        base = results["k8s-default"]
        base_carbon = np.mean(list(base.per_job_carbon().values()))
        for name in ("pcaps", "cap-k8s-default"):
            result = results[name]
            carbon = np.mean(list(result.per_job_carbon().values()))
            points.append(
                PerJobPoint(
                    scheduler=name,
                    trial=trial,
                    jct_ratio=result.avg_jct / base.avg_jct,
                    carbon_ratio=float(carbon / base_carbon),
                )
            )
    quadrants: dict[str, dict[str, float]] = {}
    for name in ("pcaps", "cap-k8s-default"):
        mine = [p for p in points if p.scheduler == name]
        n = max(len(mine), 1)
        quadrants[name] = {
            "less_carbon": 100.0 * sum(p.carbon_ratio < 1 for p in mine) / n,
            "less_carbon_and_faster": 100.0
            * sum(p.carbon_ratio < 1 and p.jct_ratio < 1 for p in mine)
            / n,
        }
    return points, quadrants


# ----------------------------------------------------------------------
# Fig. 15 — standalone FIFO vs Spark/Kubernetes default
# ----------------------------------------------------------------------
@dataclass
class Fig15Data:
    times: dict[str, np.ndarray]
    busy: dict[str, np.ndarray]
    jobs_in_system: dict[str, np.ndarray]
    results: dict[str, ExperimentResult]


def fig15_fifo_vs_k8s(
    num_executors: int = 25,
    num_jobs: int = 20,
    grid: str = "DE",
    seed: int = 4,
    resolution: float = 5.0,
) -> Fig15Data:
    """Fig. 15: identical batch under standalone FIFO vs the K8s default."""
    from repro.simulator.trace import jobs_in_system_series

    workload = WorkloadSpec(family="tpch", num_jobs=num_jobs)
    modes = {
        "fifo-standalone": ExperimentConfig(
            scheduler="fifo",
            grid=grid,
            mode="standalone",
            num_executors=num_executors,
            workload=workload,
            seed=seed,
        ),
        "k8s-default": ExperimentConfig(
            scheduler="k8s-default",
            grid=grid,
            mode="kubernetes",
            num_executors=num_executors,
            per_job_cap=max(2, num_executors // 4),
            workload=workload,
            seed=seed,
        ),
    }
    results = {name: run_experiment(cfg) for name, cfg in modes.items()}
    horizon = max(r.ect for r in results.values())
    times, busy, jobs_sys = {}, {}, {}
    for name, result in results.items():
        t, b = busy_executor_series(result.trace, t_end=horizon, resolution=resolution)
        times[name], busy[name] = t, b
        _, j = jobs_in_system_series(
            result.arrivals, result.finishes, t_end=horizon, resolution=resolution
        )
        jobs_sys[name] = j
    return Fig15Data(times=times, busy=busy, jobs_in_system=jobs_sys, results=results)


# ----------------------------------------------------------------------
# Fig. 20 — scheduler invocation latency
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LatencyRow:
    scheduler: str
    queued_jobs: int
    avg_latency_ms: float
    invocations: int


def latency_profile(
    queue_lengths: tuple[int, ...] = (1, 5, 10, 25),
    schedulers: tuple[str, ...] = ("fifo", "cap-fifo", "decima", "pcaps"),
    num_executors: int = 25,
    grid: str = "DE",
) -> list[LatencyRow]:
    """Fig. 20: mean scheduler-invocation latency vs queue length.

    All jobs arrive at t=0 so the scheduler faces ``N`` queued jobs; latency
    is wall-clock time inside ``select`` per invocation.
    """
    rows = []
    for count in queue_lengths:
        for name in schedulers:
            config = ExperimentConfig(
                scheduler=name,
                grid=grid,
                num_executors=num_executors,
                workload=WorkloadSpec(
                    family="tpch",
                    num_jobs=count,
                    mean_interarrival=1e-6,  # effectively simultaneous
                    tpch_scales=(2,),
                ),
                seed=1,
                measure_latency=True,
            )
            result = run_experiment(config)
            rows.append(
                LatencyRow(
                    scheduler=name,
                    queued_jobs=count,
                    avg_latency_ms=result.avg_scheduler_latency_s * 1e3,
                    invocations=result.scheduler_invocations,
                )
            )
    return rows
