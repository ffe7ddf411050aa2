"""Declarative experiment runner.

Every paper experiment is "a scheduler (or scheduler + wrapper) on a cluster
config, a workload batch, and a carbon trace slice". An
:class:`ExperimentConfig` names those choices; :func:`run_experiment`
materializes and runs one; :func:`run_matchup` runs several schedulers on
the *identical* workload and trace (the paper's normalized comparisons
require identical batches — Appendix A.1.2). Normalized sweeps over many
configs run as campaigns (:func:`repro.campaign.executor.run_sweep`), a
layer that builds on this one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

from repro.carbon.api import CarbonIntensityAPI
from repro.carbon.grids import synthesize_trace
from repro.carbon.trace import CarbonTrace
from repro.core.cap import CAPProvisioner
from repro.core.pcaps import PCAPSScheduler
from repro.schedulers.decima import DecimaScheduler
from repro.schedulers.fifo import FIFOScheduler, KubernetesDefaultScheduler
from repro.schedulers.greenhadoop import GreenHadoopProvisioner
from repro.schedulers.weighted_fair import WeightedFairScheduler
from repro.simulator.engine import ClusterConfig, Simulation
from repro.simulator.interfaces import Provisioner, StageScheduler
from repro.simulator.metrics import ExperimentResult
from repro.workloads.arrivals import JobSubmission
from repro.workloads.batch import WorkloadSpec, build_workload

#: Names accepted by :func:`build_scheduler`. ``cap-*`` pairs the CAP
#: provisioner with the named underlying scheduler (the paper evaluates
#: CAP on FIFO, Weighted Fair, and Decima).
SCHEDULER_NAMES: tuple[str, ...] = (
    "fifo",
    "k8s-default",
    "weighted-fair",
    "decima",
    "greenhadoop",
    "cap-fifo",
    "cap-k8s-default",
    "cap-weighted-fair",
    "cap-decima",
    "pcaps",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: scheduler × cluster × workload × carbon slice.

    Parameters mirror the paper's experimental knobs:

    - ``scheduler``: one of :data:`SCHEDULER_NAMES`.
    - ``grid``: Table 1 grid code; ignored if ``carbon_trace`` is supplied
      to :func:`run_experiment` directly.
    - ``trace_hours`` / ``trace_start_step``: the slice of the (synthetic)
      3-year trace to replay; prototype trials start "at a uniformly
      randomly chosen time in the carbon trace".
    - ``gamma``: PCAPS carbon-awareness (moderate = 0.5).
    - ``cap_min_quota``: CAP's B; defaults to 20% of the cluster, the
      paper's moderate setting (B=20 on K=100).
    - ``gh_theta``: GreenHadoop's carbon-awareness knob.
    - ``mode``: ``"standalone"`` (simulator experiments, Table 3) or
      ``"kubernetes"`` (prototype-style experiments, Table 2).
    """

    scheduler: str = "fifo"
    grid: str = "DE"
    num_executors: int = 50
    mode: str = "standalone"
    per_job_cap: int = 25
    executor_move_delay: float = 0.5
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    trace_hours: int = 240
    trace_start_step: int = 0
    gamma: float = 0.5
    cap_min_quota: int | None = None
    gh_theta: float = 0.5
    seed: int = 0
    measure_latency: bool = False

    def __post_init__(self) -> None:
        if self.scheduler not in SCHEDULER_NAMES:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}; choose from {SCHEDULER_NAMES}"
            )
        if self.mode not in ("standalone", "kubernetes"):
            raise ValueError("mode must be 'standalone' or 'kubernetes'")

    def with_scheduler(self, name: str) -> "ExperimentConfig":
        return replace(self, scheduler=name)


def build_scheduler(
    config: ExperimentConfig, carbon_trace: CarbonTrace
) -> tuple[StageScheduler, Provisioner | None]:
    """Instantiate the scheduler (and provisioner) a config names."""
    name = config.scheduler
    seed = config.seed
    base_schedulers = {
        "fifo": lambda: FIFOScheduler(),
        "k8s-default": lambda: KubernetesDefaultScheduler(),
        "weighted-fair": lambda: WeightedFairScheduler(),
        "decima": lambda: DecimaScheduler(seed=seed),
    }
    min_quota = config.cap_min_quota
    if min_quota is None:
        min_quota = max(1, config.num_executors // 5)  # paper's 20%

    if name in base_schedulers:
        return base_schedulers[name](), None
    if name == "greenhadoop":
        return FIFOScheduler(), GreenHadoopProvisioner(
            carbon_trace, theta=config.gh_theta
        )
    if name.startswith("cap-"):
        underlying = name.removeprefix("cap-")
        if underlying not in base_schedulers:
            raise ValueError(f"CAP cannot wrap unknown scheduler {underlying!r}")
        return base_schedulers[underlying](), CAPProvisioner(
            total_executors=config.num_executors, min_quota=min_quota
        )
    if name == "pcaps":
        return (
            PCAPSScheduler(DecimaScheduler(seed=seed), gamma=config.gamma),
            None,
        )
    raise ValueError(f"unknown scheduler {name!r}")  # pragma: no cover


@lru_cache(maxsize=None)
def _full_synthetic_trace(grid: str) -> CarbonTrace:
    """Memoized 3-year trace per grid — slicing it per config is cheap,
    synthesizing it per trial (e.g. inside campaign workers) is not."""
    return synthesize_trace(grid, seed=0)


@lru_cache(maxsize=256)
def _memoized_workload(
    spec: WorkloadSpec, seed: int | None
) -> tuple[JobSubmission, ...]:
    """Memoized batch synthesis per ``(spec, seed)``.

    Workload synthesis dominates Decima-scale sweeps (ROADMAP hot spot) and
    federation/campaign runs re-request the identical batch once per region
    or per policy. ``build_workload`` is a pure function of ``(spec, seed)``,
    so the cached tuple is exactly the batch a fresh synthesis would return;
    submissions are frozen and DAGs are never mutated by the engine, so
    sharing them across trials is safe. Callers get a fresh list.
    """
    return tuple(build_workload(spec, seed=seed))


def memoized_workload(
    spec: WorkloadSpec, seed: int | None = 0
) -> list[JobSubmission]:
    """Like :func:`repro.workloads.batch.build_workload`, but memoized."""
    return list(_memoized_workload(spec, seed))


def workload_for(config: ExperimentConfig) -> list[JobSubmission]:
    """The (memoized) job batch a config names."""
    return memoized_workload(config.workload, config.seed)


def carbon_trace_for(config: ExperimentConfig) -> CarbonTrace:
    """The carbon slice a config names (synthesized deterministically)."""
    return _full_synthetic_trace(config.grid).slice(
        config.trace_start_step, config.trace_hours
    )


def simulation_for(
    config: ExperimentConfig,
    carbon_trace: CarbonTrace | None = None,
) -> Simulation:
    """Materialize the :class:`Simulation` a config names, unrun.

    :func:`run_experiment` is exactly ``simulation_for(config).run(
    workload_for(config))``; service mode, federations and disruption
    injection use this to drive the same simulation through a
    :class:`~repro.simulator.engine.SimulationStepper` instead, so every
    path stays bit-identical by construction.
    """
    trace = carbon_trace if carbon_trace is not None else carbon_trace_for(config)
    scheduler, provisioner = build_scheduler(config, trace)
    cluster = ClusterConfig(
        num_executors=config.num_executors,
        executor_move_delay=config.executor_move_delay,
        per_job_executor_cap=(
            config.per_job_cap if config.mode == "kubernetes" else None
        ),
        mode=config.mode,
    )
    return Simulation(
        config=cluster,
        scheduler=scheduler,
        carbon_api=CarbonIntensityAPI(trace),
        provisioner=provisioner,
        measure_latency=config.measure_latency,
    )


def run_experiment(
    config: ExperimentConfig,
    carbon_trace: CarbonTrace | None = None,
) -> ExperimentResult:
    """Materialize and run one experiment to completion."""
    return simulation_for(config, carbon_trace).run(workload_for(config))


def run_matchup(
    scheduler_names: list[str],
    config: ExperimentConfig,
    carbon_trace: CarbonTrace | None = None,
) -> dict[str, ExperimentResult]:
    """Run several schedulers on the identical workload and trace slice.

    The workload seed and trace slice come from ``config``, so every
    scheduler sees the same batch — this is what makes the paper's
    normalized metrics meaningful. All runs share one carbon trace object.
    """
    trace = carbon_trace if carbon_trace is not None else carbon_trace_for(config)
    return {
        name: run_experiment(config.with_scheduler(name), carbon_trace=trace)
        for name in dict.fromkeys(scheduler_names)
    }
