"""The federation engine: N cluster simulations in one virtual timeline.

The :class:`Federation` coordinator owns one
:class:`~repro.simulator.engine.SimulationStepper` per region and advances
them in event-time lockstep: before each global job arrival every regional
engine is advanced to (just before) the arrival instant, the routing policy
inspects one fresh :class:`~repro.geo.routing.RegionSnapshot` per region,
and the job is injected into the chosen region's event stream. After the
last arrival each region drains independently — there are no further
cross-region interactions to order.

Every source of randomness (workload synthesis, per-region scheduler
sampling, origin assignment) is seeded from the
:class:`~repro.geo.config.FederationConfig`, so a pinned config reproduces
byte-identical routing decisions and carbon totals.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.dag.metrics import critical_path_length
from repro.disrupt.inject import install_disruptions
from repro.experiments.runner import memoized_workload, simulation_for
from repro.geo.config import FederationConfig, RegionConfig
from repro.geo.result import (
    FederationResult,
    MigrationDecision,
    RegionResult,
    RoutingDecision,
)
from repro.geo.routing import (
    FailoverRouting,
    RegionSnapshot,
    build_routing_policy,
)
from repro.obs.observer import current as _current_observer
from repro.simulator.engine import SimulationStepper
from repro.workloads.arrivals import JobSubmission

#: Salt mixed into the origin-assignment RNG so origins are independent of
#: the workload stream drawn from the same seed.
_ORIGIN_SEED_SALT = 0x6E0


class _Region:
    """One member cluster: its simulation plus the identity around it."""

    def __init__(self, index: int, spec: RegionConfig, config: FederationConfig):
        self.index = index
        self.spec = spec
        self.sim = simulation_for(
            spec.to_experiment_config(config.workload, config.seed)
        )
        self.api = self.sim.carbon_api
        self.stepper: SimulationStepper | None = None

    def start(self) -> None:
        self.stepper = self.sim.stepper()

    def snapshot(self, t: float) -> RegionSnapshot:
        low, high = self.api.bounds(t)
        return RegionSnapshot(
            index=self.index,
            name=self.spec.name,
            grid=self.spec.grid,
            time=t,
            total_executors=self.spec.num_executors,
            busy_executors=self.stepper.busy_executors,
            queued_jobs=self.stepper.queued_jobs,
            outstanding_work=self.stepper.outstanding_work(),
            carbon_intensity=self.api.intensity(t),
            forecast_low=low,
            forecast_high=high,
            online_executors=self.stepper.capacity,
        )


class Federation:
    """Run one federation trial to completion.

    Usage::

        result = Federation(FederationConfig.six_grid()).run()

    The coordinator is re-runnable: each :meth:`run` rebuilds fresh
    steppers, so a second run replays identically (the same guarantee the
    single-cluster :meth:`Simulation.run` gives).
    """

    def __init__(self, config: FederationConfig) -> None:
        self.config = config
        self.regions = [
            _Region(i, spec, config) for i, spec in enumerate(config.regions)
        ]

    # ------------------------------------------------------------------
    def _origins(self, submissions: list[JobSubmission]) -> list[int]:
        """Per-job origin region indices (seeded, or pinned by config).

        With every region at the default ``arrival_weight`` the original
        uniform draw is used, byte-identical to the unweighted behavior;
        unequal weights switch to a weighted draw from the same seeded RNG.
        """
        if self.config.origin_region is not None:
            fixed = self.config.region_index(self.config.origin_region)
            return [fixed] * len(submissions)
        rng = np.random.default_rng((self.config.seed, _ORIGIN_SEED_SALT))
        weights = np.array(
            [r.arrival_weight for r in self.config.regions], dtype=float
        )
        if np.all(weights == weights[0]):
            return [
                int(v)
                for v in rng.integers(len(self.regions), size=len(submissions))
            ]
        return [
            int(v)
            for v in rng.choice(
                len(self.regions),
                size=len(submissions),
                p=weights / weights.sum(),
            )
        ]

    # ------------------------------------------------------------------
    def _route_and_submit(
        self,
        policy,
        sub: JobSubmission,
        origin: int,
        snapshots: list[RegionSnapshot],
        names: tuple[str, ...],
    ) -> RoutingDecision:
        """One routing decision: choose a region, price transfer, submit."""
        choice = policy.route(sub, origin, snapshots, snapshots[origin])
        if not 0 <= choice < len(self.regions):
            raise ValueError(
                f"routing policy {policy.name!r} returned invalid "
                f"region index {choice}"
            )
        transfer_g = self.config.transfer.transfer_carbon_g(
            sub.dag,
            snapshots[origin].carbon_intensity,
            snapshots[choice].carbon_intensity,
            same_region=origin == choice,
        )
        self.regions[choice].stepper.submit(sub)
        return RoutingDecision(
            job_id=sub.job_id,
            time=sub.arrival_time,
            origin=names[origin],
            region=names[choice],
            transfer_g=transfer_g,
            job_work=sub.dag.total_work,
            job_critical_path=critical_path_length(sub.dag),
        )

    def _migrate_from(
        self,
        down: "_Region",
        t: float,
        policy,
        placements: dict[int, int],
        origins: dict[int, float],
    ) -> list[MigrationDecision]:
        """Withdraw not-yet-started jobs from a just-downed region.

        Each withdrawn job re-routes over the up regions (via the failover
        wrapper's inner policy, with the down region as its transfer
        origin: its input must egress from there) and is resubmitted with
        its arrival clamped to the migration instant. Jobs stay put when
        no region is up.
        """
        snapshots = [region.snapshot(t) for region in self.regions]
        up = tuple(s for s in snapshots if s.is_up)
        if not up:
            return []
        stepper = down.stepper
        candidates = sorted(
            job_id
            for job_id, region_index in placements.items()
            if region_index == down.index
        )
        moves: list[MigrationDecision] = []
        for job_id in candidates:
            sub = stepper.withdraw(job_id)
            if sub is None:  # already running (or finished): stays put
                continue
            choice = policy.route(
                sub, down.index, up, snapshots[down.index]
            )
            transfer_g = self.config.transfer.transfer_carbon_g(
                sub.dag,
                snapshots[down.index].carbon_intensity,
                snapshots[choice].carbon_intensity,
                same_region=choice == down.index,
            )
            moved = replace(sub, arrival_time=max(sub.arrival_time, t))
            self.regions[choice].stepper.submit(moved)
            placements[job_id] = choice
            moves.append(
                MigrationDecision(
                    job_id=job_id,
                    time=t,
                    from_region=down.spec.name,
                    to_region=self.regions[choice].spec.name,
                    transfer_g=transfer_g,
                    original_arrival=origins[job_id],
                )
            )
        return moves

    def run(self) -> FederationResult:
        """Drive the whole federation trial to completion.

        Synthesizes the (memoized) workload, assigns seeded origins,
        builds the routing policy — wrapped in
        :class:`~repro.geo.routing.FailoverRouting` when disruptions are
        installed and ``config.failover`` is on — then walks the
        coordination points in time order: every job arrival (route, pay
        transfer carbon if the job leaves its origin, inject) and, with
        migration on, every outage start (withdraw queued jobs from the
        dead region and re-route them). After the last arrival each
        region drains independently. A pinned config replays
        byte-identically: same routing decisions, same carbon totals.
        """
        config = self.config
        submissions = memoized_workload(config.workload, config.seed)
        origins = self._origins(submissions)
        policy = build_routing_policy(
            config.routing, config.transfer, config.executor_power_kw
        )
        schedule = config.disruptions
        if schedule is not None and config.failover:
            policy = FailoverRouting(policy)
        policy.reset()
        observer = _current_observer()
        if observer is not None:
            registry = observer.registry
            obs_decisions = registry.counter(
                f"geo.route.decisions.{policy.name}"
            )
            obs_cross = registry.counter("geo.route.cross_region")
            obs_migrations = registry.counter("geo.migrations")
            span_start = observer.tracer.now_us()
        else:
            obs_decisions = obs_cross = obs_migrations = None
            span_start = 0.0
        for region in self.regions:
            region.start()
            if schedule is not None:
                install_disruptions(
                    region.stepper, schedule, region=region.spec.name
                )

        # Coordination points, in time order: every job arrival, plus — when
        # migration is on — every outage start (kind 1 sorts after a same-
        # instant arrival, so just-submitted jobs are migration candidates).
        points: list[tuple[float, int, int]] = [
            (sub.arrival_time, 0, i) for i, sub in enumerate(submissions)
        ]
        if schedule is not None and config.failover and config.migrate:
            points += [
                (event.start, 1, config.region_index(event.region))
                for event in schedule.outages()
            ]
        points.sort()

        names = config.region_names()
        decisions: list[RoutingDecision] = []
        migrations: list[MigrationDecision] = []
        #: job id -> current region index, for migration sweeps.
        placements: dict[int, int] = {}
        arrival_of: dict[int, float] = {}
        for t, kind, payload in points:
            if kind == 0:
                sub, origin = submissions[payload], origins[payload]
                # Event-time lockstep: every region catches up to the
                # arrival instant before the policy looks at it.
                for region in self.regions:
                    region.stepper.advance_until(t)
                snapshots = [region.snapshot(t) for region in self.regions]
                decision = self._route_and_submit(
                    policy, sub, origin, snapshots, names
                )
                decisions.append(decision)
                if obs_decisions is not None:
                    obs_decisions.inc()
                    if decision.origin != decision.region:
                        obs_cross.inc()
                placements[sub.job_id] = names.index(decision.region)
                arrival_of[sub.job_id] = sub.arrival_time
            else:
                # Outage sweep: apply every event *through* t first so the
                # downed region's capacity drop (and any preemptions) are
                # visible, then relocate its queued jobs.
                for region in self.regions:
                    region.stepper.advance_through(t)
                moves = self._migrate_from(
                    self.regions[payload], t, policy, placements,
                    arrival_of,
                )
                migrations.extend(moves)
                if obs_migrations is not None and moves:
                    obs_migrations.inc(len(moves))

        # No more cross-region interactions: drain each region to the end.
        region_results = []
        for region in self.regions:
            region.stepper.run_to_completion()
            region_results.append(
                RegionResult(
                    name=region.spec.name,
                    grid=region.spec.grid,
                    num_executors=region.spec.num_executors,
                    result=region.stepper.result(),
                )
            )
        reroutes = list(getattr(policy, "reroutes", ()))
        if observer is not None:
            if reroutes:
                observer.registry.counter("geo.failover.reroutes").inc(
                    len(reroutes)
                )
            observer.tracer.complete(
                f"federation {config.routing}",
                start_us=span_start,
                dur_us=observer.tracer.now_us() - span_start,
                cat="geo",
                regions=len(self.regions),
                jobs=len(decisions),
                migrations=len(migrations),
            )
        return FederationResult(
            routing=config.routing,
            regions=region_results,
            decisions=decisions,
            executor_power_kw=config.executor_power_kw,
            migrations=migrations,
            reroutes=reroutes,
            disruptions=schedule,
        )


def run_federation(config: FederationConfig) -> FederationResult:
    """Build and run one federation trial (the one-call entry point).

    .. note:: **Failover is not a free win.** With
       ``config.disruptions`` set and ``failover=True``, jobs are
       diverted away from down regions and queued work is migrated out —
       which rescues deadlines but *costs* carbon: in the pinned
       benchmark scenario (`benchmarks/bench_disrupt.py`) failover lifts
       on-time completions from 2/48 to 28/48 and cuts ECT 4899s →
       3553s, but total carbon rises ~2.3× vs riding the outage out,
       because diverted jobs run in dirtier grids and migrated inputs
       ship twice. Treat ``failover``/``migrate`` as policy knobs weighed
       against deadline pressure, and read
       ``FederationResult.failover_transfer_carbon_g`` plus the compute
       ledger before concluding resilience helped.
    """
    return Federation(config).run()
