"""Tests for the geo federation subsystem (``repro.geo``)."""

import itertools

import pytest

from repro.carbon.grids import GRID_CODES
from repro.dag.graph import JobDAG, Stage
from repro.experiments.federation import (
    run_routing_matchup,
    scaled_single_region,
    single_region_carbon_g,
)
from repro.experiments.runner import (
    SCHEDULER_NAMES,
    ExperimentConfig,
    run_experiment,
)
from repro.geo import (
    FederationConfig,
    RegionConfig,
    RegionSnapshot,
    TransferModel,
    build_routing_policy,
    compare_federations,
    run_federation,
)
from repro.geo.routing import (
    ROUTING_POLICY_NAMES,
    CarbonForecastRouting,
    CarbonGreedyRouting,
    QueueAwareRouting,
    RoundRobinRouting,
)
from repro.workloads.arrivals import JobSubmission
from repro.workloads.batch import WorkloadSpec

from conftest import schedule_fingerprint


def tiny_workload(num_jobs: int = 6) -> WorkloadSpec:
    return WorkloadSpec(
        family="tpch", num_jobs=num_jobs, mean_interarrival=10.0,
        tpch_scales=(2,),
    )


def two_region_config(**overrides) -> FederationConfig:
    params = dict(
        regions=(
            RegionConfig(name="de", grid="DE", scheduler="fifo",
                         num_executors=4),
            RegionConfig(name="on", grid="ON", scheduler="fifo",
                         num_executors=4),
        ),
        routing="round-robin",
        workload=tiny_workload(),
        seed=0,
    )
    params.update(overrides)
    return FederationConfig(**params)


def make_snapshot(index: int, **overrides) -> RegionSnapshot:
    params = dict(
        index=index, name=f"r{index}", grid="DE", time=0.0,
        total_executors=10, busy_executors=0, queued_jobs=0,
        outstanding_work=0.0, carbon_intensity=300.0,
        forecast_low=200.0, forecast_high=400.0,
    )
    params.update(overrides)
    return RegionSnapshot(**params)


def one_stage_job(job_id: int = 0, work: float = 600.0) -> JobSubmission:
    dag = JobDAG([Stage(stage_id=0, num_tasks=10, task_duration=work / 10)])
    return JobSubmission(arrival_time=0.0, dag=dag, job_id=job_id)


class TestConfigs:
    def test_region_rejects_unknown_grid(self):
        with pytest.raises(ValueError, match="unknown grid"):
            RegionConfig(name="x", grid="MARS")

    def test_region_rejects_unknown_scheduler(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            RegionConfig(name="x", scheduler="lpt")

    def test_federation_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="unique"):
            FederationConfig(
                regions=(RegionConfig(name="a"), RegionConfig(name="a", grid="ON")),
            )

    def test_federation_rejects_unknown_routing(self):
        with pytest.raises(ValueError, match="routing"):
            two_region_config(routing="teleport")

    def test_federation_rejects_foreign_origin(self):
        with pytest.raises(ValueError, match="origin_region"):
            two_region_config(origin_region="caiso")

    def test_six_grid_covers_table1(self):
        config = FederationConfig.six_grid()
        assert tuple(r.grid for r in config.regions) == GRID_CODES
        assert len(set(config.region_names())) == 6

    def test_transfer_model_free_within_region(self):
        model = TransferModel()
        sub = one_stage_job()
        assert model.transfer_carbon_g(sub.dag, 300, 100, same_region=True) == 0.0
        crossed = model.transfer_carbon_g(sub.dag, 300, 100, same_region=False)
        # 600 exec-s -> GB at gb_per_cpu_hour, energy at kwh_per_gb, priced
        # at the mean intensity of the two endpoints.
        expected = (600 / 3600 * 5.0) * 0.03 * 200.0
        assert crossed == pytest.approx(expected)

    def test_transfer_model_rejects_negative(self):
        with pytest.raises(ValueError):
            TransferModel(kwh_per_gb=-1.0)


class TestRoutingPolicies:
    def test_round_robin_cycles(self):
        policy = RoundRobinRouting()
        snaps = [make_snapshot(i) for i in range(3)]
        sub = one_stage_job()
        assert [policy.route(sub, 0, snaps) for _ in range(5)] == [0, 1, 2, 0, 1]
        policy.reset()
        assert policy.route(sub, 0, snaps) == 0

    def test_queue_aware_picks_least_loaded(self):
        policy = QueueAwareRouting()
        snaps = [
            make_snapshot(0, outstanding_work=500.0),
            make_snapshot(1, outstanding_work=100.0),
            make_snapshot(2, outstanding_work=900.0),
        ]
        assert policy.route(one_stage_job(), 0, snaps) == 1

    def test_queue_aware_normalizes_by_capacity(self):
        policy = QueueAwareRouting()
        snaps = [
            make_snapshot(0, outstanding_work=400.0, total_executors=4),
            make_snapshot(1, outstanding_work=500.0, total_executors=10),
        ]
        assert policy.route(one_stage_job(), 0, snaps) == 1

    def test_carbon_greedy_picks_lowest_intensity(self):
        policy = CarbonGreedyRouting()
        snaps = [
            make_snapshot(0, carbon_intensity=420.0),
            make_snapshot(1, carbon_intensity=35.0),
            make_snapshot(2, carbon_intensity=310.0),
        ]
        assert policy.route(one_stage_job(), 2, snaps) == 1

    def test_ties_break_toward_lower_index(self):
        policy = CarbonGreedyRouting()
        snaps = [make_snapshot(0), make_snapshot(1)]  # identical intensity
        assert policy.route(one_stage_job(), 1, snaps) == 0

    def test_forecast_prefers_cleaner_region_when_transfer_cheap(self):
        policy = CarbonForecastRouting(TransferModel(kwh_per_gb=0.0))
        snaps = [
            make_snapshot(0, carbon_intensity=400.0, forecast_low=350.0,
                          forecast_high=450.0),
            make_snapshot(1, carbon_intensity=40.0, forecast_low=20.0,
                          forecast_high=60.0),
        ]
        assert policy.route(one_stage_job(), 0, snaps) == 1

    def test_forecast_keeps_job_home_when_transfer_expensive(self):
        policy = CarbonForecastRouting(TransferModel(kwh_per_gb=50.0))
        snaps = [
            make_snapshot(0, carbon_intensity=400.0, forecast_low=350.0,
                          forecast_high=450.0),
            make_snapshot(1, carbon_intensity=40.0, forecast_low=20.0,
                          forecast_high=60.0),
        ]
        assert policy.route(one_stage_job(), 0, snaps) == 0

    def test_forecast_accounts_for_queue_backlog_via_window(self):
        # A hugely backlogged region prices at its (worse) window mean
        # rather than a momentarily-clean spot intensity.
        policy = CarbonForecastRouting(TransferModel(kwh_per_gb=0.0))
        snaps = [
            make_snapshot(0, carbon_intensity=120.0, forecast_low=100.0,
                          forecast_high=140.0),
            make_snapshot(1, carbon_intensity=90.0, forecast_low=90.0,
                          forecast_high=900.0, outstanding_work=1e6),
        ]
        assert policy.route(one_stage_job(), 0, snaps) == 0

    def test_build_routing_policy_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown routing"):
            build_routing_policy("teleport")

    def test_registry_covers_all_names(self):
        for name in ROUTING_POLICY_NAMES:
            assert build_routing_policy(name).name == name


class TestFederationRun:
    def test_all_jobs_finish_exactly_once(self):
        result = run_federation(two_region_config())
        assert result.num_jobs == 6
        assert sorted(result.finishes) == list(range(6))
        assert sum(result.jobs_per_region().values()) == 6

    def test_round_robin_splits_evenly(self):
        result = run_federation(two_region_config())
        assert result.jobs_per_region() == {"de": 3, "on": 3}

    def test_pinned_origin_disables_randomness(self):
        result = run_federation(two_region_config(origin_region="de"))
        assert all(d.origin == "de" for d in result.decisions)

    def test_pinned_seed_trial_is_byte_identical(self):
        config = two_region_config(routing="carbon-forecast", seed=3)
        first, second = run_federation(config), run_federation(config)
        assert first.decisions == second.decisions
        assert repr(first.total_carbon_g) == repr(second.total_carbon_g)
        for a, b in zip(first.regions, second.regions):
            assert repr(a.result.carbon_footprint) == repr(
                b.result.carbon_footprint
            )
            assert a.result.finishes == b.result.finishes

    def test_empty_region_yields_zero_metrics(self):
        # carbon-greedy concentrates this tiny batch in ON, leaving DE's
        # engine without a single job — its result must still aggregate.
        result = run_federation(two_region_config(routing="carbon-greedy"))
        counts = result.jobs_per_region()
        assert counts["on"] == 6 and counts["de"] == 0
        empty = next(r for r in result.regions if r.name == "de")
        assert empty.result.num_jobs == 0
        assert empty.result.carbon_footprint == 0.0
        assert empty.result.ect == 0.0

    def test_transfer_charged_only_on_moves(self):
        result = run_federation(two_region_config(routing="carbon-greedy"))
        moved = [d for d in result.decisions if d.moved]
        stayed = [d for d in result.decisions if not d.moved]
        assert all(d.transfer_g > 0 for d in moved)
        assert all(d.transfer_g == 0 for d in stayed)
        assert result.transfer_carbon_g == pytest.approx(
            sum(d.transfer_g for d in result.decisions)
        )

    def test_global_metrics_aggregate_regions(self):
        result = run_federation(two_region_config())
        assert result.ect == max(r.result.ect for r in result.regions)
        assert result.compute_carbon_g == pytest.approx(
            sum(
                r.result.carbon_footprint * result.executor_power_kw / 3600.0
                for r in result.regions
            )
        )
        assert result.avg_stretch >= 1.0

    def test_federation_reuses_single_cluster_engine(self):
        """A 1-region federation's cluster result equals run_experiment."""
        solo = scaled_single_region(two_region_config(), "de")
        fed = run_federation(solo)
        region = solo.regions[0]
        standalone = run_experiment(
            region.to_experiment_config(solo.workload, solo.seed)
        )
        inner = fed.regions[0].result
        assert inner.finishes == standalone.finishes
        assert repr(inner.carbon_footprint) == repr(standalone.carbon_footprint)
        assert [
            (t.job_id, t.stage_id, t.executor_id, t.start, t.end)
            for t in inner.trace.tasks
        ] == [
            (t.job_id, t.stage_id, t.executor_id, t.start, t.end)
            for t in standalone.trace.tasks
        ]

    @pytest.mark.parametrize(
        "scheduler,mode",
        list(itertools.product(SCHEDULER_NAMES, ("standalone", "kubernetes"))),
    )
    def test_one_region_federation_matches_run_experiment(self, scheduler, mode):
        """A region builds its cluster as run_experiment does, Kubernetes
        mode's default per-job cap included."""
        region = RegionConfig(
            name="solo", grid="DE", scheduler=scheduler,
            num_executors=30, mode=mode,
        )
        workload = WorkloadSpec(
            family="tpch", num_jobs=4, mean_interarrival=30.0,
            tpch_scales=(2, 10),
        )
        config = FederationConfig(
            regions=(region,), routing="round-robin", workload=workload,
            seed=2,
        )
        fed = run_federation(config)
        alone = run_experiment(region.to_experiment_config(workload, 2))
        assert schedule_fingerprint(fed.regions[0].result) == (
            schedule_fingerprint(alone)
        )


class TestSixGridScenario:
    """The benchmark acceptance scenario at test scale."""

    @pytest.fixture(scope="class")
    def results(self):
        config = FederationConfig.six_grid(
            num_executors=8,
            workload=WorkloadSpec(num_jobs=18, tpch_scales=(2, 10)),
            seed=1,
        )
        return run_routing_matchup(config)

    def test_carbon_forecast_beats_round_robin_on_carbon(self, results):
        assert (
            results["carbon-forecast"].total_carbon_g
            < results["round-robin"].total_carbon_g
        )

    def test_comparison_rows_are_consistent(self, results):
        base = results["round-robin"]
        m = compare_federations(results["carbon-forecast"], base)
        assert m.baseline == "round-robin"
        assert m.carbon_reduction_pct > 0
        assert m.ect_ratio == pytest.approx(
            results["carbon-forecast"].ect / base.ect
        )

    def test_single_region_baselines_cover_all_grids(self):
        config = FederationConfig.six_grid(
            num_executors=6, workload=tiny_workload(), seed=0
        )
        carbon = single_region_carbon_g(config)
        assert set(carbon) == set(config.region_names())
        assert all(v > 0 for v in carbon.values())


class TestStepperEquivalence:
    """The federation's stepping API replays run() bit-identically."""

    def test_submit_all_then_drain_equals_run(self):
        config = ExperimentConfig(
            scheduler="pcaps", num_executors=6,
            workload=tiny_workload(8), seed=2,
        )
        from repro.carbon.api import CarbonIntensityAPI
        from repro.experiments.runner import (
            build_scheduler,
            carbon_trace_for,
            workload_for,
        )
        from repro.simulator.engine import ClusterConfig, Simulation

        trace = carbon_trace_for(config)
        subs = workload_for(config)

        def build():
            scheduler, provisioner = build_scheduler(config, trace)
            return Simulation(
                config=ClusterConfig(num_executors=6),
                scheduler=scheduler,
                carbon_api=CarbonIntensityAPI(trace),
                provisioner=provisioner,
            )

        via_run = build().run(subs)

        stepper = build().stepper()
        for sub in subs:
            stepper.submit(sub)
        stepper.run_to_completion()
        via_stepper = stepper.result()

        assert via_run.finishes == via_stepper.finishes
        assert list(via_run.trace.tasks) == list(via_stepper.trace.tasks)
        assert repr(via_run.carbon_footprint) == repr(
            via_stepper.carbon_footprint
        )

    def test_interleaved_submission_still_completes(self):
        config = ExperimentConfig(num_executors=4, workload=tiny_workload(6))
        from repro.carbon.api import CarbonIntensityAPI
        from repro.experiments.runner import (
            build_scheduler,
            carbon_trace_for,
            workload_for,
        )
        from repro.simulator.engine import ClusterConfig, Simulation

        trace = carbon_trace_for(config)
        subs = workload_for(config)
        scheduler, _ = build_scheduler(config, trace)
        stepper = Simulation(
            config=ClusterConfig(num_executors=4),
            scheduler=scheduler,
            carbon_api=CarbonIntensityAPI(trace),
        ).stepper()
        for sub in subs:  # advance to each arrival before injecting it
            stepper.advance_until(sub.arrival_time)
            stepper.submit(sub)
        stepper.run_to_completion()
        result = stepper.result()
        assert sorted(result.finishes) == [s.job_id for s in subs]

    def test_occupancy_introspection(self):
        config = ExperimentConfig(num_executors=4, workload=tiny_workload(3))
        from repro.carbon.api import CarbonIntensityAPI
        from repro.experiments.runner import (
            build_scheduler,
            carbon_trace_for,
            workload_for,
        )
        from repro.simulator.engine import ClusterConfig, Simulation

        trace = carbon_trace_for(config)
        subs = workload_for(config)
        scheduler, _ = build_scheduler(config, trace)
        stepper = Simulation(
            config=ClusterConfig(num_executors=4),
            scheduler=scheduler,
            carbon_api=CarbonIntensityAPI(trace),
        ).stepper()
        assert stepper.busy_executors == 0
        assert stepper.queued_jobs == 0
        assert stepper.outstanding_work() == 0.0
        total = sum(s.dag.total_work for s in subs)
        for sub in subs:
            stepper.submit(sub)
        assert stepper.queued_jobs == 3
        assert stepper.outstanding_work() == pytest.approx(total)
        stepper.advance_until(subs[0].arrival_time + 1.0)
        assert stepper.busy_executors > 0
        stepper.run_to_completion()
        assert stepper.busy_executors == 0
        assert stepper.outstanding_work() == 0.0


class TestSharedColumnCache:
    """The engine's dirty-marked frontier table cannot change results."""

    @pytest.mark.parametrize("scheduler", ["decima", "cap-decima", "pcaps"])
    def test_cache_disabled_is_bit_identical(self, scheduler):
        config = ExperimentConfig(
            scheduler=scheduler, num_executors=5,
            workload=tiny_workload(8), seed=4,
        )
        from repro.carbon.api import CarbonIntensityAPI
        from repro.experiments.runner import (
            build_scheduler,
            carbon_trace_for,
            workload_for,
        )
        from repro.simulator.engine import ClusterConfig, Simulation

        trace = carbon_trace_for(config)
        subs = workload_for(config)

        def run(disable_cache: bool):
            sched, provisioner = build_scheduler(config, trace)
            stepper = Simulation(
                config=ClusterConfig(num_executors=5),
                scheduler=sched,
                carbon_api=CarbonIntensityAPI(trace),
                provisioner=provisioner,
            ).stepper()
            if disable_cache:
                # No table: every view builds its frontier from scratch.
                stepper._frontier_table = None
            for sub in subs:
                stepper.submit(sub)
            stepper.run_to_completion()
            return stepper.result()

        with_cache, without_cache = run(False), run(True)
        assert list(with_cache.trace.tasks) == list(without_cache.trace.tasks)
        assert repr(with_cache.carbon_footprint) == repr(
            without_cache.carbon_footprint
        )
