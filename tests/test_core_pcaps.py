"""Behavioural tests for PCAPS (Algorithm 1)."""

import pytest

from repro.carbon.api import CarbonReading
from repro.core.pcaps import PCAPSScheduler
from repro.dag.graph import JobDAG, Stage
from repro.schedulers.decima import DecimaScheduler
from repro.simulator.state import ClusterView, JobRuntime
from repro.workloads.arrivals import JobSubmission

from conftest import (
    assert_valid_schedule,
    run_sim,
    staggered_jobs,
)


def pcaps(gamma=0.5, seed=0, **kwargs):
    return PCAPSScheduler(DecimaScheduler(seed=seed), gamma=gamma, **kwargs)


class TestConstruction:
    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            pcaps(gamma=1.5)
        with pytest.raises(ValueError):
            pcaps(gamma=-0.1)

    def test_parallelism_mode_validation(self):
        with pytest.raises(ValueError):
            pcaps(parallelism_mode="bogus")

    def test_name_includes_gamma_and_policy(self):
        scheduler = pcaps(gamma=0.7)
        assert "0.7" in scheduler.name and "decima" in scheduler.name


class TestCarbonAgnosticLimit:
    def test_gamma_zero_never_defers(self, square_trace, tiny_dag):
        subs = staggered_jobs([tiny_dag] * 4, gap=5.0)
        scheduler = pcaps(gamma=0.0)
        result = run_sim(scheduler, subs, square_trace)
        assert result.trace.deferrals == 0
        assert scheduler.deferral_count == 0

    def test_gamma_zero_matches_decima_schedule(self, square_trace, tiny_dag):
        # At γ=0, P' is Decima's own ⌈K/active⌉ share. PCAPS masks stages
        # already at the share before its draw, while plain Decima draws
        # from every assignable stage (and blocks and redraws if it picks
        # a capped one), so the two consume random numbers identically
        # only while no assignable stage sits at its share. On 6
        # executors that never happens for these three diamond jobs.
        subs = staggered_jobs([tiny_dag] * 3, gap=5.0)
        decima = run_sim(
            DecimaScheduler(seed=4), subs, square_trace, num_executors=6
        )
        wrapped = run_sim(
            pcaps(gamma=0.0, seed=4), subs, square_trace, num_executors=6
        )
        assert wrapped.ect == pytest.approx(decima.ect)
        assert wrapped.carbon_footprint == pytest.approx(decima.carbon_footprint)

    def test_gamma_zero_never_blocks_where_the_share_binds(
        self, square_trace, tiny_dag
    ):
        # On 4 executors the share binds, so the schedule differs from
        # plain Decima's (see above); every choice still grows (the engine
        # raises on one that cannot), and the schedule completes.
        subs = staggered_jobs([tiny_dag] * 3, gap=5.0)
        result = run_sim(pcaps(gamma=0.0, seed=4), subs, square_trace)
        assert_valid_schedule(result, subs)

    def test_flat_carbon_never_defers(self, flat_trace, tiny_dag):
        subs = staggered_jobs([tiny_dag] * 4, gap=5.0)
        result = run_sim(pcaps(gamma=0.9), subs, flat_trace)
        assert result.trace.deferrals == 0


class TestDeferralBehaviour:
    def test_defers_during_high_carbon(self, square_trace):
        """Low-importance side stages wait while a bottleneck chain runs."""
        h = 60.0
        dag = JobDAG(
            [
                Stage(0, 1, 1 * h, name="root"),
                Stage(1, 1, 1 * h, parents=(0,), name="side-a"),
                Stage(2, 1, 2 * h, parents=(0,), name="side-b"),
                Stage(3, 1, 6 * h, parents=(0,), name="bottleneck"),
                Stage(4, 1, 4 * h, parents=(3,), name="bottleneck-2"),
                Stage(5, 1, 1 * h, parents=(1, 2, 4), name="sink"),
            ]
        )
        # Arrival lands at the start of a 12-step high block.
        subs = [JobSubmission(12 * 60.0, dag, 0)]
        scheduler = pcaps(gamma=0.8)
        result = run_sim(scheduler, subs, square_trace, num_executors=2)
        assert result.trace.deferrals > 0

    def test_progress_guarantee_when_idle(self, square_trace):
        """With no machines busy, PCAPS schedules regardless of carbon
        (Algorithm 1, line 7)."""
        dag = JobDAG([Stage(0, 1, 10.0)])
        subs = [JobSubmission(12 * 60.0, dag, 0)]  # arrives mid-high-carbon
        result = run_sim(pcaps(gamma=1.0), subs, square_trace, num_executors=2)
        (task,) = result.trace.tasks
        assert task.start == pytest.approx(12 * 60.0)

    def test_deferral_counts_match_engine(self, square_trace, tiny_dag):
        subs = staggered_jobs([tiny_dag] * 6, gap=30.0)
        scheduler = pcaps(gamma=0.9)
        result = run_sim(scheduler, subs, square_trace, num_executors=2)
        assert result.trace.deferrals == scheduler.deferral_count

    def test_higher_gamma_saves_more_carbon(self, square_trace):
        """Monotone trade-off on average (Figs. 7/11)."""
        dag = JobDAG(
            [
                Stage(0, 2, 40.0),
                Stage(1, 2, 40.0, parents=(0,)),
                Stage(2, 4, 30.0, parents=(0,)),
            ]
        )
        # Arrivals span a full high-carbon block so there is carbon to save.
        subs = [
            JobSubmission(12 * 60.0 + i * 90.0, dag, i) for i in range(8)
        ]
        footprints = {}
        for gamma in (0.0, 0.9):
            result = run_sim(pcaps(gamma=gamma), subs, square_trace, num_executors=3)
            footprints[gamma] = result.carbon_footprint
        assert footprints[0.9] < footprints[0.0]


def limit_of_8_tasks(scheduler, low, high, intensity):
    """``P'`` of a lone 8-task stage on 8 executors (so the policy's own
    limit is the task count), read from PCAPS's limit column."""
    job = JobRuntime(0, JobDAG([Stage(0, 8, 10.0)]), arrival_time=0.0)
    view = ClusterView(
        time=0.0, total_executors=8, busy_executors=0, quota=8,
        jobs={0: job},
        carbon=CarbonReading(
            time=0.0, intensity=intensity, lower_bound=low, upper_bound=high
        ),
    )
    frontier = view.frontier_arrays(include_saturated=True)
    (limit,) = scheduler.parallelism_limits(view, frontier).tolist()
    return limit


class TestParallelismScaling:
    def test_decay_reduces_limit_at_high_carbon(self):
        scheduler = pcaps(gamma=0.5)
        at_low = limit_of_8_tasks(scheduler, low=50.0, high=450.0, intensity=50.0)
        at_high = limit_of_8_tasks(
            scheduler, low=50.0, high=450.0, intensity=450.0
        )
        assert at_low == 8
        assert at_high < at_low
        assert at_high >= 1

    def test_paper_mode_caps_at_one_minus_gamma(self):
        scheduler = pcaps(gamma=0.5, parallelism_mode="paper")
        at_low = limit_of_8_tasks(scheduler, low=50.0, high=450.0, intensity=50.0)
        assert at_low == 4  # ceil(8 * 0.5)

    def test_off_mode_keeps_limit(self):
        scheduler = pcaps(gamma=0.9, parallelism_mode="off")
        assert limit_of_8_tasks(scheduler, 50.0, 450.0, 450.0) == 8

    def test_limit_always_at_least_one(self):
        scheduler = pcaps(gamma=1.0, parallelism_mode="paper")
        assert limit_of_8_tasks(scheduler, 50.0, 450.0, 450.0) == 1


class TestDeferScope:
    def test_validation(self):
        with pytest.raises(ValueError):
            pcaps(defer_scope="job")
        with pytest.raises(ValueError):
            pcaps(defer_scope="sample", max_resamples=0)

    def test_sample_scope_defers_less_wall_time(self, square_trace):
        """Per-sample deferral keeps more executors busy: ECT no worse than
        per-event deferral on the same workload."""
        dag = JobDAG(
            [
                Stage(0, 2, 40.0),
                Stage(1, 2, 40.0, parents=(0,)),
                Stage(2, 4, 30.0, parents=(0,)),
            ]
        )
        subs = [JobSubmission(12 * 60.0 + i * 90.0, dag, i) for i in range(8)]
        per_event = run_sim(
            pcaps(gamma=0.9, defer_scope="event"), subs, square_trace,
            num_executors=3,
        )
        per_sample = run_sim(
            pcaps(gamma=0.9, defer_scope="sample"), subs, square_trace,
            num_executors=3,
        )
        assert per_sample.ect <= per_event.ect + 1e-9

    def test_sample_scope_counts_each_rejection(self, square_trace, tiny_dag):
        subs = staggered_jobs([tiny_dag] * 6, gap=30.0)
        scheduler = pcaps(gamma=0.9, defer_scope="sample")
        result = run_sim(scheduler, subs, square_trace, num_executors=2)
        # each engine-level deferral burns the whole resampling budget or
        # found nothing; filter-level count is at least the engine count
        assert scheduler.deferral_count >= result.trace.deferrals


class TestScheduleValidity:
    def test_valid_schedule_and_completion(self, square_trace, tiny_dag):
        subs = staggered_jobs([tiny_dag] * 5, gap=20.0)
        result = run_sim(pcaps(gamma=0.6), subs, square_trace)
        assert_valid_schedule(result, subs)

    def test_reset_between_runs_reproducible(self, square_trace, tiny_dag):
        subs = staggered_jobs([tiny_dag] * 4, gap=10.0)
        scheduler = pcaps(gamma=0.7, seed=3)
        a = run_sim(scheduler, subs, square_trace)
        b = run_sim(scheduler, subs, square_trace)
        assert a.ect == pytest.approx(b.ect)
        assert a.carbon_footprint == pytest.approx(b.carbon_footprint)
