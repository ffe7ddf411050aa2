"""Engine-throughput measurement harness (``repro perf``).

The paper's evaluation is thousands of event-driven trials, so per-trial
engine throughput is the lever on campaign wall-time. This module times
complete simulated trials across a scheduler × job-count grid and reports:

- **events/s** — scheduling events (arrivals, task completions, carbon
  steps) processed per second of wall time;
- **tasks/s** — task placements per second of wall time;
- **select latency** — mean wall-clock per scheduler invocation, the
  paper's Fig. 20 metric (measured via ``measure_latency=True``);
- **carbon tally time** — the ex-post accounting pass, timed separately;
- **campaign throughput** — trials/min through the full campaign stack
  (spec expansion, content-addressed keys, store append), measured by
  running the ``smoke`` campaign preset cold against a throwaway store.

Results land in ``BENCH_engine.json``. Wall times are this machine's;
the work counters (events, tasks, selects, deferrals, steps, views and the
frontier-cache hit rates) repeat exactly on every machine, and
``tests/test_perf_engine.py`` pins those of ``repro perf --smoke``.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro import __version__
from repro.experiments.runner import (
    SCHEDULER_NAMES,
    ExperimentConfig,
    run_experiment,
)
from repro.workloads.batch import WorkloadSpec
from repro.ioutil import atomic_write_text

DEFAULT_OUTPUT = "BENCH_engine.json"

@dataclass(frozen=True)
class PerfScenario:
    """One timed trial: a scheduler on a sized workload."""

    name: str
    scheduler: str
    num_jobs: int
    num_executors: int = 50
    family: str = "tpch"
    seed: int = 0
    trace_hours: int = 2000
    mean_interarrival: float = 30.0

    def config(self) -> ExperimentConfig:
        return ExperimentConfig(
            scheduler=self.scheduler,
            num_executors=self.num_executors,
            workload=WorkloadSpec(
                family=self.family,
                num_jobs=self.num_jobs,
                mean_interarrival=self.mean_interarrival,
            ),
            seed=self.seed,
            trace_hours=self.trace_hours,
            measure_latency=True,
        )


@dataclass
class PerfMeasurement:
    """Everything measured from one timed trial."""

    name: str
    scheduler: str
    num_jobs: int
    num_executors: int
    wall_s: float
    events: int
    events_per_s: float
    tasks: int
    tasks_per_s: float
    select_calls: int
    avg_select_latency_ms: float
    carbon_tally_s: float
    ect: float
    carbon: float
    #: Frontier-cache effectiveness (``None`` unless the scenario was run
    #: with ``collect_cache_stats=True``; collected on a second, untimed
    #: pass so the timed wall stays observation-free).
    frontier_matrix_hit_rate: float | None = field(default=None)
    frontier_column_hit_rate: float | None = field(default=None)
    #: Deterministic work counters from the same untimed observed pass:
    #: scheduler deferrals, scheduling steps (``engine.steps``) and the
    #: cluster views built for them (``engine.views``, at most one per
    #: step).
    deferrals: int | None = field(default=None)
    steps: int | None = field(default=None)
    views: int | None = field(default=None)


DEFAULT_SCHEDULERS: tuple[str, ...] = ("fifo", "decima", "pcaps")
DEFAULT_JOB_COUNTS: tuple[int, ...] = (50, 100, 200)


def build_scenarios(
    schedulers: Sequence[str] = DEFAULT_SCHEDULERS,
    job_counts: Sequence[int] = DEFAULT_JOB_COUNTS,
    num_executors: int = 50,
) -> list[PerfScenario]:
    """The scheduler × job-count measurement grid."""
    unknown = [s for s in schedulers if s not in SCHEDULER_NAMES]
    if unknown:
        raise ValueError(
            f"unknown schedulers {unknown}; choose from {SCHEDULER_NAMES}"
        )
    return [
        PerfScenario(
            name=f"{scheduler}-{jobs}",
            scheduler=scheduler,
            num_jobs=jobs,
            num_executors=num_executors,
        )
        for scheduler in schedulers
        for jobs in job_counts
    ]


def smoke_scenarios() -> list[PerfScenario]:
    """A seconds-scale grid for CI: every default scheduler, tiny batches."""
    return [
        PerfScenario(
            name=f"smoke-{scheduler}-10",
            scheduler=scheduler,
            num_jobs=10,
            num_executors=10,
            trace_hours=300,
        )
        for scheduler in DEFAULT_SCHEDULERS
    ]


def _observed_pass(config: ExperimentConfig) -> dict:
    """Cache hit rates and work counters from one untimed observed run,
    keyed by their :class:`PerfMeasurement` field names."""
    from repro.obs.observer import collecting, hit_rate

    with collecting("perf-observed-pass") as observer:
        run_experiment(config)
    registry = observer.registry

    def rate(base: str) -> float | None:
        return hit_rate(
            registry.value(f"{base}.hits"), registry.value(f"{base}.misses")
        )

    return {
        "frontier_matrix_hit_rate": rate("engine.cache.matrix"),
        "frontier_column_hit_rate": rate("engine.cache.column"),
        "deferrals": registry.value("engine.deferrals"),
        "steps": registry.value("engine.steps"),
        "views": registry.value("engine.views"),
    }


def run_scenario(
    scenario: PerfScenario, collect_cache_stats: bool = False
) -> PerfMeasurement:
    """Run one trial end-to-end and measure it.

    With ``collect_cache_stats`` the scenario runs a *second* time under an
    observer to read the engine's frontier-cache hit rates and its
    deferral, step and view counters; the timed run stays
    obs-off, so wall times are never contaminated by instrumentation.
    """
    config = scenario.config()
    t0 = time.perf_counter()
    result = run_experiment(config)
    wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    carbon = result.carbon_footprint
    carbon_tally_s = time.perf_counter() - t0
    observed = _observed_pass(config) if collect_cache_stats else {}
    return PerfMeasurement(
        name=scenario.name,
        scheduler=scenario.scheduler,
        num_jobs=scenario.num_jobs,
        num_executors=scenario.num_executors,
        wall_s=wall,
        events=result.events_processed,
        events_per_s=result.events_processed / wall if wall > 0 else 0.0,
        tasks=len(result.trace.tasks),
        tasks_per_s=len(result.trace.tasks) / wall if wall > 0 else 0.0,
        select_calls=result.scheduler_invocations,
        avg_select_latency_ms=result.avg_scheduler_latency_s * 1e3,
        carbon_tally_s=carbon_tally_s,
        ect=result.ect,
        carbon=carbon,
        **observed,
    )


def measure_campaign_throughput(
    preset: str = "smoke", workers: int = 0
) -> dict:
    """Trials/min through the campaign stack, measured cold.

    Runs the named campaign preset against a throwaway store (no cache
    hits — every trial simulates), so the number includes spec expansion,
    trial keying, pool dispatch, and store appends, not just raw engine
    time. ``workers=0`` runs inline; pass a pool size to measure the
    parallel path instead.
    """
    import tempfile

    from repro.campaign import CampaignRunner, ResultStore, campaign_presets

    spec = campaign_presets()[preset]
    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(Path(tmp) / "perf-campaign.jsonl")
        runner = CampaignRunner(store, workers=workers)
        t0 = time.perf_counter()
        run = runner.run(spec)
        wall = time.perf_counter() - t0
    trials = len(run.records)
    return {
        "preset": preset,
        "workers": workers,
        "trials": trials,
        "failures": len(run.failures),
        "wall_s": wall,
        "trials_per_min": trials / wall * 60.0 if wall > 0 else 0.0,
    }


def run_suite(
    scenarios: Iterable[PerfScenario], collect_cache_stats: bool = True
) -> list[PerfMeasurement]:
    return [
        run_scenario(scenario, collect_cache_stats=collect_cache_stats)
        for scenario in scenarios
    ]


def write_report(
    measurements: Sequence[PerfMeasurement],
    path: str | Path,
    campaign_throughput: dict | None = None,
) -> dict:
    """Serialize measurements (plus provenance) to ``path``; returns the doc."""
    doc = {
        "benchmark": "engine-throughput",
        "version": __version__,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "scenarios": [asdict(m) for m in measurements],
    }
    if campaign_throughput is not None:
        doc["campaign_throughput"] = campaign_throughput
    atomic_write_text(Path(path), json.dumps(doc, indent=1) + "\n")
    return doc


def format_report(measurements: Sequence[PerfMeasurement]) -> str:
    """Human-readable table of a measurement run."""
    lines = [
        f"{'scenario':<18} {'wall_s':>8} {'events/s':>10} {'tasks/s':>9} "
        f"{'select_ms':>10} {'matrix%':>8}"
    ]
    for m in measurements:
        matrix = (
            f"{m.frontier_matrix_hit_rate:.0%}"
            if m.frontier_matrix_hit_rate is not None
            else "-"
        )
        lines.append(
            f"{m.name:<18} {m.wall_s:>8.3f} {m.events_per_s:>10.0f} "
            f"{m.tasks_per_s:>9.0f} {m.avg_select_latency_ms:>10.3f} "
            f"{matrix:>8}"
        )
    return "\n".join(lines)
