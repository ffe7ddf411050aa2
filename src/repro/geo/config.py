"""Federation configuration: regions, transfer costs, and the global knobs.

A federation composes N independent clusters — each with its own grid
carbon trace and intra-cluster scheduler — under one routing layer. A
:class:`RegionConfig` describes one member cluster (a subset of the
single-cluster :class:`~repro.experiments.runner.ExperimentConfig` fields),
and a :class:`FederationConfig` names the member list, the routing policy,
the shared workload, and the :class:`TransferModel` that prices moving a
job's input data between regions — spatial carbon shifting is not free.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.carbon.grids import GRID_CODES
from repro.dag.graph import JobDAG
from repro.disrupt.schedule import DisruptionSchedule
from repro.experiments.runner import SCHEDULER_NAMES, ExperimentConfig
from repro.workloads.batch import WorkloadSpec

#: Default per-executor power draw used to convert footprint units
#: (gCO2eq/kWh × executor-seconds) into grams, matching
#: :meth:`repro.simulator.metrics.ExperimentResult.carbon_cost_usd`.
DEFAULT_EXECUTOR_POWER_KW = 0.25

#: Policy names accepted by :func:`repro.geo.routing.build_routing_policy`.
#: Defined here, not beside the policies, so validating a config does not
#: import the routing module.
ROUTING_POLICY_NAMES: tuple[str, ...] = (
    "round-robin",
    "queue-aware",
    "carbon-greedy",
    "carbon-forecast",
)


@dataclass(frozen=True)
class TransferModel:
    """Carbon cost of moving a job's input data between regions.

    A routed job whose origin differs from its execution region pays for
    shipping its input over the wide-area network. The input volume scales
    with the job's total work (``gb_per_cpu_hour``), and the network
    consumes ``kwh_per_gb`` along the path; that energy is charged at the
    mean of the origin and destination carbon intensities at routing time.
    Intra-region placement is free.

    Defaults are deliberately round: ~5 GB of input per executor-hour of
    compute, and 0.03 kWh/GB of end-to-end transfer energy (mid-range of
    published WAN energy-intensity estimates).
    """

    gb_per_cpu_hour: float = 5.0
    kwh_per_gb: float = 0.03

    def __post_init__(self) -> None:
        if self.gb_per_cpu_hour < 0 or self.kwh_per_gb < 0:
            raise ValueError("transfer model parameters must be >= 0")

    def job_gb(self, dag: JobDAG) -> float:
        """Input data volume of one job, in GB."""
        return dag.total_work / 3600.0 * self.gb_per_cpu_hour

    def transfer_carbon_g(
        self,
        dag: JobDAG,
        origin_intensity: float,
        dest_intensity: float,
        same_region: bool,
    ) -> float:
        """Grams of CO2eq to ship the job's input origin → destination."""
        if same_region:
            return 0.0
        mean_intensity = 0.5 * (origin_intensity + dest_intensity)
        return self.job_gb(dag) * self.kwh_per_gb * mean_intensity


@dataclass(frozen=True)
class RegionConfig:
    """One member cluster of a federation.

    The fields mirror the scheduler/cluster/trace subset of
    :class:`~repro.experiments.runner.ExperimentConfig`; the workload fields
    are absent because the federation owns the (global) workload and routes
    each job to exactly one region.
    """

    name: str
    grid: str = "DE"
    scheduler: str = "pcaps"
    num_executors: int = 25
    gamma: float = 0.5
    cap_min_quota: int | None = None
    gh_theta: float = 0.5
    trace_hours: int = 240
    trace_start_step: int = 0
    executor_move_delay: float = 0.5
    per_job_cap: int | None = None
    mode: str = "standalone"
    #: Relative share of job *origins* this region attracts. With every
    #: weight equal (the default) origins are assigned by the original
    #: uniform draw, byte-identical to the pre-weight behavior; unequal
    #: weights model skewed user populations (the ROADMAP's "skewed
    #: per-region arrival processes" follow-up).
    arrival_weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("region needs a non-empty name")
        if self.grid not in GRID_CODES:
            raise ValueError(f"unknown grid {self.grid!r}; choose from {GRID_CODES}")
        if self.scheduler not in SCHEDULER_NAMES:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}; "
                f"choose from {SCHEDULER_NAMES}"
            )
        if self.num_executors < 1:
            raise ValueError("region needs at least one executor")
        if not self.arrival_weight > 0:
            raise ValueError("arrival_weight must be positive")

    def to_experiment_config(
        self, workload: WorkloadSpec, seed: int
    ) -> ExperimentConfig:
        """The single-cluster config this region runs under the hood."""
        return ExperimentConfig(
            scheduler=self.scheduler,
            grid=self.grid,
            num_executors=self.num_executors,
            mode=self.mode,
            per_job_cap=self.per_job_cap if self.per_job_cap is not None else 25,
            executor_move_delay=self.executor_move_delay,
            workload=workload,
            trace_hours=self.trace_hours,
            trace_start_step=self.trace_start_step,
            gamma=self.gamma,
            cap_min_quota=self.cap_min_quota,
            gh_theta=self.gh_theta,
            seed=seed,
        )


@dataclass(frozen=True)
class FederationConfig:
    """One federation experiment: regions × routing × workload × transfer.

    Parameters
    ----------
    regions:
        Member clusters, each with its own grid trace and scheduler.
    routing:
        One of :data:`ROUTING_POLICY_NAMES`.
    workload:
        The global job batch; every job is routed to exactly one region.
    seed:
        Seeds workload synthesis, per-region scheduler randomness, and the
        job-origin assignment — one seed pins the whole federation trial.
    transfer:
        Inter-region data-transfer cost model.
    origin_region:
        Region every job originates from. ``None`` (default) assigns
        origins at random (seeded), weighted by each region's
        ``arrival_weight``, modelling geo-distributed users.
    executor_power_kw:
        Per-executor power draw for converting footprints to grams.
    disruptions:
        Optional :class:`~repro.disrupt.schedule.DisruptionSchedule` of
        region outages, curtailments, and carbon-signal blackouts injected
        into the trial. ``None`` (default) reproduces the undisrupted
        federation bit-identically.
    failover:
        With disruptions present, wrap the routing policy in
        :class:`~repro.geo.routing.FailoverRouting` so arriving jobs avoid
        down regions.
    migrate:
        With disruptions *and* failover on, additionally withdraw
        not-yet-started jobs from a region at each of its outages and
        re-route them (paying transfer carbon out of the down region).
        ``failover=False`` disables all reactions regardless.
    """

    regions: tuple[RegionConfig, ...]
    routing: str = "carbon-forecast"
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    seed: int = 0
    transfer: TransferModel = field(default_factory=TransferModel)
    origin_region: str | None = None
    executor_power_kw: float = DEFAULT_EXECUTOR_POWER_KW
    disruptions: DisruptionSchedule | None = None
    failover: bool = True
    migrate: bool = True

    def __post_init__(self) -> None:
        if not self.regions:
            raise ValueError("a federation needs at least one region")
        if not isinstance(self.regions, tuple):
            object.__setattr__(self, "regions", tuple(self.regions))
        names = [r.name for r in self.regions]
        if len(set(names)) != len(names):
            raise ValueError(f"region names must be unique, got {names}")
        if self.routing not in ROUTING_POLICY_NAMES:
            raise ValueError(
                f"unknown routing policy {self.routing!r}; "
                f"choose from {ROUTING_POLICY_NAMES}"
            )
        if self.origin_region is not None and self.origin_region not in names:
            raise ValueError(
                f"origin_region {self.origin_region!r} is not a member region"
            )
        if self.executor_power_kw <= 0:
            raise ValueError("executor_power_kw must be positive")
        if self.disruptions is not None:
            foreign = [
                region
                for region in self.disruptions.region_names()
                if region not in names
            ]
            if foreign:
                raise ValueError(
                    f"disruption events target non-member regions {foreign}"
                )
            if any(e.region is None for e in self.disruptions.events):
                raise ValueError(
                    "federation disruption events must name a member region"
                )

    # ------------------------------------------------------------------
    def with_disruptions(
        self,
        schedule: DisruptionSchedule | None,
        failover: bool = True,
        migrate: bool = True,
    ) -> "FederationConfig":
        return replace(
            self, disruptions=schedule, failover=failover, migrate=migrate
        )

    # ------------------------------------------------------------------
    def with_routing(self, name: str) -> "FederationConfig":
        return replace(self, routing=name)

    def region_names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.regions)

    def region_index(self, name: str) -> int:
        for i, region in enumerate(self.regions):
            if region.name == name:
                return i
        raise KeyError(name)

    @classmethod
    def six_grid(
        cls,
        scheduler: str = "pcaps",
        num_executors: int = 25,
        routing: str = "carbon-forecast",
        workload: WorkloadSpec | None = None,
        seed: int = 0,
        trace_hours: int = 240,
        **kwargs,
    ) -> "FederationConfig":
        """One cluster per Table-1 grid — the paper's six regions federated."""
        regions = tuple(
            RegionConfig(
                name=grid.lower(),
                grid=grid,
                scheduler=scheduler,
                num_executors=num_executors,
                trace_hours=trace_hours,
            )
            for grid in GRID_CODES
        )
        return cls(
            regions=regions,
            routing=routing,
            workload=workload if workload is not None else WorkloadSpec(),
            seed=seed,
            **kwargs,
        )
