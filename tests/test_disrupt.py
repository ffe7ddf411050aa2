"""Tests for the disruption & resilience subsystem (``repro.disrupt``)."""

import math

import pytest

from repro.carbon.api import CarbonIntensityAPI
from repro.disrupt import (
    DisruptionEvent,
    DisruptionSchedule,
    cluster_disruption_report,
    federation_disruption_report,
    jobs_completed_by,
    run_disrupted_experiment,
)
from repro.experiments.disrupt import (
    disruption_matchup_reports,
    matchup_deadline,
    run_disruption_matchup,
)
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.geo import (
    FailoverRouting,
    FederationConfig,
    RegionConfig,
    build_routing_policy,
    run_federation,
)
from repro.schedulers.fifo import FIFOScheduler
from repro.simulator.engine import ClusterConfig, Simulation
from repro.workloads.batch import WorkloadSpec

from conftest import (
    make_trace,
    reference_bottleneck_scores,
    schedule_fingerprint,
)


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


def outage(region: str | None, start: float, end: float) -> DisruptionEvent:
    return DisruptionEvent(kind="outage", region=region, start=start, end=end)


# ----------------------------------------------------------------------
# Schedule validation and generation
# ----------------------------------------------------------------------
class TestSchedule:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown disruption kind"):
            DisruptionEvent(kind="meteor", start=0.0, end=1.0)

    def test_rejects_inverted_window(self):
        with pytest.raises(ValueError, match="start < end"):
            outage(None, 10.0, 10.0)

    def test_rejects_infinite_window(self):
        with pytest.raises(ValueError, match="finite"):
            outage(None, 0.0, math.inf)

    def test_curtailment_needs_partial_fraction(self):
        with pytest.raises(ValueError, match="capacity_fraction"):
            DisruptionEvent(
                kind="curtailment", start=0.0, end=1.0, capacity_fraction=0.0
            )

    def test_rejects_overlapping_capacity_events_same_region(self):
        with pytest.raises(ValueError, match="overlapping"):
            DisruptionSchedule(
                events=(outage("de", 0.0, 100.0), outage("de", 50.0, 150.0))
            )

    def test_blackout_may_overlap_capacity_event(self):
        schedule = DisruptionSchedule(
            events=(
                outage("de", 0.0, 100.0),
                DisruptionEvent(
                    kind="signal-blackout", region="de", start=50.0, end=150.0
                ),
            )
        )
        assert len(schedule) == 2

    def test_different_regions_may_overlap(self):
        schedule = DisruptionSchedule(
            events=(outage("de", 0.0, 100.0), outage("on", 50.0, 150.0))
        )
        assert schedule.region_names() == ("de", "on")

    def test_online_executors_at(self):
        schedule = DisruptionSchedule(
            events=(
                outage("de", 10.0, 20.0),
                DisruptionEvent(
                    kind="curtailment", region="de", start=30.0, end=40.0,
                    capacity_fraction=0.5,
                ),
            )
        )
        assert schedule.online_executors_at("de", 5.0, 10) == 10
        assert schedule.online_executors_at("de", 15.0, 10) == 0
        assert schedule.online_executors_at("de", 35.0, 10) == 5
        assert schedule.online_executors_at("on", 15.0, 10) == 10

    def test_generate_is_deterministic(self):
        kwargs = dict(
            regions=("a", "b"), horizon_s=1000.0, num_outages=2,
            num_curtailments=1, num_blackouts=1,
        )
        first = DisruptionSchedule.generate(seed=3, **kwargs)
        second = DisruptionSchedule.generate(seed=3, **kwargs)
        assert first == second
        assert len(first) == 4
        assert first != DisruptionSchedule.generate(seed=4, **kwargs)

    def test_shifted_moves_every_window(self):
        schedule = DisruptionSchedule(events=(outage(None, 10.0, 20.0),))
        moved = schedule.shifted(5.0)
        assert moved.events[0].start == 15.0 and moved.events[0].end == 25.0


# ----------------------------------------------------------------------
# Engine verbs: capacity, preemption, withdraw, signal freeze
# ----------------------------------------------------------------------
def one_job_sim(num_executors: int = 4):
    """A FIFO simulation over a flat trace with one 8-task job."""
    from repro.dag.graph import JobDAG, Stage
    from repro.workloads.arrivals import JobSubmission

    dag = JobDAG([Stage(0, 8, 50.0)])
    sub = JobSubmission(arrival_time=0.0, dag=dag, job_id=0)
    sim = Simulation(
        config=ClusterConfig(
            num_executors=num_executors, executor_move_delay=0.0
        ),
        scheduler=FIFOScheduler(),
        carbon_api=CarbonIntensityAPI(make_trace([100.0] * 500)),
    )
    return sim, sub


class TestEngineVerbs:
    def test_suspend_preempts_and_resume_requeues(self):
        sim, sub = one_job_sim()
        stepper = sim.stepper()
        stepper.submit(sub)
        stepper.schedule_capacity(20.0, 0)   # mid first wave of 50s tasks
        stepper.schedule_capacity(60.0, 4)
        stepper.run_to_completion()
        result = stepper.result()
        assert stepper.preempted_tasks == 4  # the whole first wave
        preempted = result.trace.preempted_tasks()
        assert len(preempted) == 4
        assert all(t.end == 20.0 for t in preempted)
        # All 8 tasks still ran to completion afterwards.
        completed = [t for t in result.trace.tasks if not t.preempted]
        assert len(completed) == 8
        assert min(t.start for t in completed) >= 60.0
        assert result.trace.wasted_time() == pytest.approx(4 * 20.0)

    def test_partial_curtailment_keeps_some_executors(self):
        sim, sub = one_job_sim()
        stepper = sim.stepper()
        stepper.submit(sub)
        stepper.schedule_capacity(20.0, 2)
        stepper.schedule_capacity(1000.0, 4)
        stepper.run_to_completion()
        assert stepper.preempted_tasks == 2
        result = stepper.result()
        # Between 20s and 1000s at most 2 executors run concurrently.
        for t in result.trace.tasks:
            if t.preempted or t.start < 20.0 or t.start >= 1000.0:
                continue
            overlapping = [
                o
                for o in result.trace.tasks
                if not o.preempted and o.start <= t.start < o.end
            ]
            assert len(overlapping) <= 2

    def test_set_capacity_is_clamped_and_idempotent(self):
        sim, sub = one_job_sim()
        stepper = sim.stepper()
        stepper.set_capacity(0.0, 99)
        assert stepper.capacity == 4
        stepper.set_capacity(0.0, -3)
        assert stepper.capacity == 0
        stepper.resume(0.0)
        assert stepper.capacity == 4
        assert stepper.preempted_tasks == 0

    def test_suspend_parks_idle_executors_without_preemption(self):
        sim, _ = one_job_sim()
        stepper = sim.stepper()
        stepper.suspend(0.0)
        assert stepper.capacity == 0
        assert stepper.busy_executors == 0
        assert stepper.preempted_tasks == 0
        stepper.resume(0.0)
        assert stepper.pool.free_count == 4

    def test_withdraw_pending_and_unstarted_jobs(self):
        sim, sub = one_job_sim()
        stepper = sim.stepper()
        stepper.submit(sub)
        # Pending (not yet arrived): withdrawable.
        taken = stepper.withdraw(0)
        assert taken is not None and taken.job_id == 0
        assert stepper.queued_jobs == 0
        assert stepper.outstanding_work() == 0.0
        stepper.run_to_completion()
        result = stepper.result()  # nothing left; must not raise
        assert result.num_jobs == 0

    def test_withdraw_refuses_started_jobs(self):
        sim, sub = one_job_sim()
        stepper = sim.stepper()
        stepper.submit(sub)
        stepper.advance_until(1.0)  # the job arrived and launched tasks
        assert stepper.withdraw(0) is None
        stepper.run_to_completion()
        assert stepper.result().num_jobs == 1

    def test_withdraw_arrived_unstarted_job(self):
        sim, sub = one_job_sim()
        stepper = sim.stepper()
        stepper.submit(sub)
        stepper.suspend(0.0)  # nothing can launch
        stepper.advance_until(1.0)
        assert stepper.busy_executors == 0
        taken = stepper.withdraw(0)
        assert taken is not None and taken.dag is sub.dag
        stepper.resume(1.0)
        stepper.run_to_completion()
        assert stepper.result().num_jobs == 0

    def test_offline_executors_stop_accruing_hold_power(self):
        """Seizing a held executor closes its hold interval (no idle-power
        carbon for a powered-off machine)."""
        sim, sub = one_job_sim()  # FIFOScheduler: holds_executors=True
        stepper = sim.stepper()
        stepper.submit(sub)
        stepper.schedule_capacity(20.0, 0)    # outage mid first wave
        stepper.schedule_capacity(400.0, 4)
        stepper.run_to_completion()
        result = stepper.result()
        # No hold interval may overlap the [20, 400) offline window.
        for hold in result.trace.holds:
            overlap = min(hold.end, 400.0) - max(hold.start, 20.0)
            assert overlap <= 0, f"hold {hold} spans the outage"
        # Holds exist both before the outage and after recovery.
        assert any(h.end == 20.0 for h in result.trace.holds)
        assert any(h.start >= 400.0 for h in result.trace.holds)

    def test_signal_blackout_freezes_decisions_not_accounting(self):
        """Schedulers see the stale reading; the carbon tally stays true."""

        class RecordingFIFO(FIFOScheduler):
            def __init__(self):
                self.seen: list[tuple[float, float]] = []

            def select(self, view):
                self.seen.append((view.time, view.carbon.intensity))
                return super().select(view)

        # Real intensity drops from 900 to 10 after the first 60s step.
        trace = make_trace([900.0] + [10.0] * 200, step_seconds=60.0)

        def run(blackout: bool):
            from repro.dag.graph import JobDAG, Stage
            from repro.workloads.arrivals import JobSubmission

            dag = JobDAG([Stage(0, 16, 50.0)])  # waves at 0/50/100/150s
            scheduler = RecordingFIFO()
            sim = Simulation(
                config=ClusterConfig(num_executors=4,
                                     executor_move_delay=0.0),
                scheduler=scheduler,
                carbon_api=CarbonIntensityAPI(trace),
            )
            stepper = sim.stepper()
            stepper.submit(JobSubmission(arrival_time=0.0, dag=dag, job_id=0))
            if blackout:
                stepper.schedule_signal_blackout(30.0, 500.0)
            stepper.run_to_completion()
            return stepper.result(), scheduler.seen

        fresh_result, fresh_seen = run(False)
        stale_result, stale_seen = run(True)
        # During the blackout the scheduler keeps seeing the 900 reading
        # frozen at t=30 even though the grid is at 10 by then.
        in_window = lambda seen: [  # noqa: E731
            c for t, c in seen if 60.0 <= t < 500.0
        ]
        assert in_window(fresh_seen) and all(
            c == 10.0 for c in in_window(fresh_seen)
        )
        assert in_window(stale_seen) and all(
            c == 900.0 for c in in_window(stale_seen)
        )
        # FIFO ignores carbon, so decisions are identical either way — and
        # the ex-post tally (true trace) therefore matches exactly: the
        # blackout corrupted the decision feed, not the accounting.
        assert schedule_fingerprint(stale_result) == schedule_fingerprint(
            fresh_result
        )


# ----------------------------------------------------------------------
# Single-cluster injection + metrics
# ----------------------------------------------------------------------
class TestClusterInjection:
    def test_empty_schedule_matches_run_experiment(self):
        config = ExperimentConfig(
            scheduler="pcaps", num_executors=5, workload=tiny_workload(),
            seed=2,
        )
        direct = run_experiment(config)
        disrupted = run_disrupted_experiment(
            config, DisruptionSchedule.empty()
        )
        assert schedule_fingerprint(direct) == schedule_fingerprint(
            disrupted.result
        )
        assert disrupted.preempted_tasks == 0

    def test_outage_delays_but_completes(self):
        config = ExperimentConfig(
            scheduler="fifo", num_executors=4, workload=tiny_workload(),
            seed=0,
        )
        schedule = DisruptionSchedule(events=(outage(None, 30.0, 400.0),))
        base = run_experiment(config)
        run = run_disrupted_experiment(config, schedule)
        assert sorted(run.result.finishes) == sorted(base.finishes)
        assert run.result.ect >= base.ect
        assert run.preempted_tasks > 0

    def test_cluster_report_counts_waste_and_recovery(self):
        config = ExperimentConfig(
            scheduler="fifo", num_executors=4, workload=tiny_workload(),
            seed=0,
        )
        schedule = DisruptionSchedule(events=(outage(None, 30.0, 400.0),))
        run = run_disrupted_experiment(config, schedule)
        report = cluster_disruption_report(run.result, schedule)
        assert report.num_events == 1
        assert report.preempted_tasks == run.preempted_tasks
        assert report.wasted_executor_s > 0
        assert 0.0 < report.goodput < 1.0
        (latency,) = report.recovery_latency_s
        assert latency >= 0.0 and math.isfinite(latency)
        assert report.mean_recovery_latency_s == pytest.approx(latency)

    def test_jobs_completed_by(self):
        finishes = {0: 10.0, 1: 20.0, 2: 30.0}
        assert jobs_completed_by(finishes, 5.0) == 0
        assert jobs_completed_by(finishes, 20.0) == 2
        assert jobs_completed_by(finishes, 100.0) == 3


# ----------------------------------------------------------------------
# Federation: failover routing, migration, disrupted determinism
# ----------------------------------------------------------------------
class TestFailoverRouting:
    def test_wrapper_diverts_from_down_region(self):
        from test_geo import make_snapshot, one_stage_job

        policy = FailoverRouting(build_routing_policy("carbon-greedy"))
        snaps = [
            make_snapshot(0, carbon_intensity=40.0, online_executors=0),
            make_snapshot(1, carbon_intensity=200.0, online_executors=10),
        ]
        assert policy.route(one_stage_job(), 1, snaps) == 1
        assert policy.reroutes == [(0, 0, 1)]

    def test_wrapper_passes_through_when_all_up(self):
        from test_geo import make_snapshot, one_stage_job

        policy = FailoverRouting(build_routing_policy("carbon-greedy"))
        snaps = [
            make_snapshot(0, carbon_intensity=40.0, online_executors=5),
            make_snapshot(1, carbon_intensity=200.0, online_executors=10),
        ]
        assert policy.route(one_stage_job(), 1, snaps) == 0
        assert policy.reroutes == []

    def test_wrapper_keeps_choice_when_everything_down(self):
        from test_geo import make_snapshot, one_stage_job

        policy = FailoverRouting(build_routing_policy("round-robin"))
        snaps = [
            make_snapshot(0, online_executors=0),
            make_snapshot(1, online_executors=0),
        ]
        assert policy.route(one_stage_job(), 0, snaps) == 0
        assert policy.reroutes == []

    def test_round_robin_over_subset_returns_absolute_index(self):
        from test_geo import make_snapshot, one_stage_job

        policy = build_routing_policy("round-robin")
        subset = [make_snapshot(2), make_snapshot(4)]
        assert policy.route(one_stage_job(), 0, subset) == 2
        assert policy.route(one_stage_job(), 0, subset) == 4


class TestDisruptedFederation:
    def outage_config(self, **overrides) -> FederationConfig:
        schedule = DisruptionSchedule(events=(outage("on", 25.0, 700.0),))
        return two_region_config(**overrides).with_disruptions(schedule)

    def test_all_jobs_still_finish_exactly_once(self):
        result = run_federation(self.outage_config())
        assert sorted(result.finishes) == list(range(6))

    def test_failover_avoids_down_region(self):
        result = run_federation(self.outage_config())
        # Round-robin would send 3 jobs to ON; failover diverts the ones
        # arriving during the outage.
        assert result.jobs_per_region()["de"] > 3
        assert len(result.reroutes) + result.migrated_jobs() > 0

    def test_no_failover_waits_for_recovery(self):
        reactive = run_federation(self.outage_config())
        passive = run_federation(
            self.outage_config(routing="round-robin").with_disruptions(
                DisruptionSchedule(events=(outage("on", 25.0, 700.0),)),
                failover=False,
                migrate=False,
            )
        )
        assert passive.reroutes == [] and passive.migrations == []
        assert reactive.ect <= passive.ect

    def test_migration_pays_transfer_out_of_down_region(self):
        # Tiny clusters so jobs queue; the outage strikes after every
        # arrival, so failover-at-arrival cannot help — only migration can.
        config = two_region_config(
            regions=(
                RegionConfig(name="de", grid="DE", scheduler="fifo",
                             num_executors=2),
                RegionConfig(name="on", grid="ON", scheduler="fifo",
                             num_executors=2),
            ),
            workload=WorkloadSpec(
                family="tpch", num_jobs=10, mean_interarrival=5.0,
                tpch_scales=(2,),
            ),
            seed=3,
        ).with_disruptions(
            DisruptionSchedule(events=(outage("on", 60.0, 2000.0),))
        )
        result = run_federation(config)
        assert result.migrations, "expected mid-trial migrations"
        for m in result.migrations:
            assert m.from_region == "on" and m.to_region == "de"
            assert m.transfer_g > 0
            assert m.original_arrival <= m.time
        assert result.failover_transfer_carbon_g == pytest.approx(
            sum(m.transfer_g for m in result.migrations)
        )
        # JCT accounting uses the original arrivals.
        arrivals = result.arrivals
        for m in result.migrations:
            assert arrivals[m.job_id] == m.original_arrival

    def test_pinned_disrupted_trial_is_byte_identical(self):
        config = two_region_config(
            routing="carbon-forecast", seed=5
        ).with_disruptions(
            DisruptionSchedule.generate(
                seed=9, regions=("de", "on"), horizon_s=300.0,
                num_outages=1, num_curtailments=1, num_blackouts=1,
            )
        )
        first, second = run_federation(config), run_federation(config)
        assert first.decisions == second.decisions
        assert first.migrations == second.migrations
        assert first.reroutes == second.reroutes
        assert repr(first.total_carbon_g) == repr(second.total_carbon_g)
        for a, b in zip(first.regions, second.regions):
            assert schedule_fingerprint(a.result) == schedule_fingerprint(
                b.result
            )

    def test_undisrupted_config_unchanged_by_subsystem(self):
        plain = run_federation(two_region_config(seed=1))
        explicit = run_federation(
            two_region_config(seed=1).with_disruptions(None)
        )
        assert plain.decisions == explicit.decisions
        assert repr(plain.total_carbon_g) == repr(explicit.total_carbon_g)

    def test_rejects_foreign_disruption_region(self):
        with pytest.raises(ValueError, match="non-member"):
            two_region_config().with_disruptions(
                DisruptionSchedule(events=(outage("mars", 0.0, 10.0),))
            )

    def test_rejects_anonymous_region_events(self):
        with pytest.raises(ValueError, match="name a member region"):
            two_region_config().with_disruptions(
                DisruptionSchedule(events=(outage(None, 0.0, 10.0),))
            )

    def test_federation_report_aggregates_regions(self):
        config = self.outage_config()
        result = run_federation(config)
        report = federation_disruption_report(result)
        assert report.num_events == 1
        assert report.rerouted_jobs == len(result.reroutes)
        assert report.migrated_jobs == result.migrated_jobs()
        assert report.jobs_completed == 6


class TestDisruptionMatchup:
    @pytest.fixture(scope="class")
    def matchup(self):
        config = two_region_config(
            routing="carbon-forecast", seed=2
        ).with_disruptions(
            DisruptionSchedule(events=(outage("on", 20.0, 900.0),))
        )
        return run_disruption_matchup(config)

    def test_variants_present(self, matchup):
        assert set(matchup) == {"undisrupted", "no-failover", "failover"}

    def test_failover_completes_at_least_as_many_on_time(self, matchup):
        deadline = matchup_deadline(matchup)
        assert jobs_completed_by(
            matchup["failover"].finishes, deadline
        ) >= jobs_completed_by(matchup["no-failover"].finishes, deadline)

    def test_reports_share_the_deadline(self, matchup):
        schedule = matchup["failover"].disruptions
        reports = disruption_matchup_reports(matchup, schedule)
        deadline = matchup_deadline(matchup)
        assert reports["failover"].jobs_completed == jobs_completed_by(
            matchup["failover"].finishes, deadline
        )

    def test_requires_a_schedule(self):
        with pytest.raises(ValueError, match="non-empty schedule"):
            run_disruption_matchup(two_region_config())


# ----------------------------------------------------------------------
# Satellite: skewed per-region arrivals
# ----------------------------------------------------------------------
class TestArrivalWeights:
    def test_rejects_non_positive_weight(self):
        with pytest.raises(ValueError, match="arrival_weight"):
            RegionConfig(name="x", arrival_weight=0.0)

    def test_equal_weights_match_legacy_uniform_draw(self):
        """weight=1 everywhere reproduces the original integers() draw."""
        import numpy as np

        from repro.geo.federation import _ORIGIN_SEED_SALT, Federation

        config = two_region_config(seed=4)
        fed = Federation(config)
        subs = [object()] * 10
        rng = np.random.default_rng((4, _ORIGIN_SEED_SALT))
        expected = [int(v) for v in rng.integers(2, size=10)]
        assert fed._origins(subs) == expected

    def test_skewed_weights_bias_origins(self):
        from repro.geo.federation import Federation

        config = two_region_config(
            regions=(
                RegionConfig(name="de", grid="DE", scheduler="fifo",
                             num_executors=4, arrival_weight=99.0),
                RegionConfig(name="on", grid="ON", scheduler="fifo",
                             num_executors=4, arrival_weight=1.0),
            ),
            workload=tiny_workload(40),
        )
        origins = Federation(config)._origins([object()] * 40)
        assert origins.count(0) > 30  # heavily skewed toward region 0
        # And deterministic across instances.
        assert Federation(config)._origins([object()] * 40) == origins

    def test_weighted_federation_runs_end_to_end(self):
        config = two_region_config(
            regions=(
                RegionConfig(name="de", grid="DE", scheduler="fifo",
                             num_executors=4, arrival_weight=3.0),
                RegionConfig(name="on", grid="ON", scheduler="fifo",
                             num_executors=4),
            ),
        )
        result = run_federation(config)
        assert sorted(result.finishes) == list(range(6))


# ----------------------------------------------------------------------
# Campaign integration: serialization + the disrupt-sweep preset
# ----------------------------------------------------------------------
class TestDisruptCampaign:
    def test_disrupted_config_round_trips(self):
        from repro.campaign.spec import config_from_dict, config_to_dict

        config = two_region_config(seed=7).with_disruptions(
            DisruptionSchedule.generate(
                seed=2, regions=("de", "on"), num_outages=1,
                num_curtailments=1, num_blackouts=1,
            ),
            failover=False,
            migrate=True,
        )
        assert config_from_dict(config_to_dict(config), FederationConfig) == config

    def test_trial_key_depends_on_schedule_and_failover(self):
        from repro.campaign import trial_key

        base = two_region_config()
        disrupted = base.with_disruptions(
            DisruptionSchedule(events=(outage("on", 5.0, 50.0),))
        )
        assert trial_key(base, "v1") != trial_key(disrupted, "v1")
        assert trial_key(disrupted, "v1") != trial_key(
            disrupted.with_disruptions(
                disrupted.disruptions, failover=False
            ),
            "v1",
        )

    def test_disrupt_sweep_preset_listed_and_valid(self):
        from repro.campaign import campaign_presets

        spec = campaign_presets()["disrupt-sweep"]
        assert spec.base.disruptions is not None
        trials = spec.trials()
        assert all(t.disruptions == spec.base.disruptions for t in trials)
        assert {t.failover for t in trials} == {True, False}

    def test_small_disrupted_campaign_runs_and_caches(self, tmp_path):
        from repro.campaign import CampaignRunner, CampaignSpec, ResultStore

        spec = CampaignSpec(
            "disrupt-tiny",
            two_region_config(workload=tiny_workload(4)).with_disruptions(
                DisruptionSchedule(events=(outage("on", 15.0, 300.0),))
            ),
            axes={
                "routing": ("round-robin",),
                "failover": (True, False),
            },
            baseline="round-robin",
        )
        store = ResultStore(tmp_path / "store.jsonl")
        run = CampaignRunner(store, workers=0).run(spec)
        assert not run.failures
        assert run.stats.misses == 2
        for record in run.records:
            assert "rerouted_jobs" in record.metrics
            assert "failover_transfer_carbon_g" in record.metrics
        rerun = CampaignRunner(store, workers=0).run(spec)
        assert rerun.stats.hits == 2 and rerun.stats.misses == 0


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestDisruptCLI:
    def test_disrupt_requires_subcommand(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["disrupt"])

    def test_disrupt_run_prints_resilience(self, capsys):
        from repro.cli import main

        code = main([
            "disrupt", "run", "--regions", "DE,ON", "--scheduler", "fifo",
            "--executors", "4", "--jobs", "5", "--interarrival", "8",
            "--horizon", "60", "--outages", "1", "--curtailments", "0",
            "--blackouts", "0",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "disruption events" in out
        assert "resilience:" in out

    def test_disrupt_compare_prints_variants(self, capsys):
        from repro.cli import main

        code = main([
            "disrupt", "compare", "--regions", "DE,ON", "--scheduler",
            "fifo", "--executors", "4", "--jobs", "5", "--interarrival",
            "8", "--horizon", "60", "--outages", "1", "--curtailments",
            "0", "--blackouts", "0",
        ])
        out = capsys.readouterr().out
        assert code == 0
        for variant in ("undisrupted", "no-failover", "failover"):
            assert variant in out

    def test_disrupt_empty_schedule_rejected(self, capsys):
        from repro.cli import main

        code = main([
            "disrupt", "run", "--regions", "DE,ON", "--scheduler", "fifo",
            "--executors", "4", "--jobs", "5", "--outages", "0",
            "--curtailments", "0", "--blackouts", "0",
        ])
        assert code == 2
        assert "empty" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Satellite: bottleneck descendant-work cache
# ----------------------------------------------------------------------
class TestBottleneckCache:
    def test_scores_bit_identical_on_pinned_workload(self):
        """Cached descendant work reproduces the exact reference floats."""
        from repro.dag.metrics import bottleneck_scores
        from repro.experiments.runner import workload_for

        config = ExperimentConfig(workload=tiny_workload(4), seed=8)
        for sub in workload_for(config):
            dag = sub.dag
            done: set[int] = set()
            for sid in dag.topological_order():
                assert bottleneck_scores(dag, done) == (
                    reference_bottleneck_scores(dag, done)
                )
                done.add(sid)

    def test_cache_matches_direct_descendant_work(self):
        from repro.dag.graph import fork_join_dag
        from repro.dag.metrics import descendant_work

        dag = fork_join_dag([3.0, 5.0, 7.0], num_tasks=2)
        cached = dag.descendant_work_map()
        for sid in dag.stage_ids():
            assert cached[sid] == descendant_work(dag, sid)
