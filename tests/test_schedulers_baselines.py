"""Unit tests for the carbon-agnostic baseline schedulers."""

import numpy as np
import pytest

from repro.dag.graph import JobDAG, Stage, chain_dag
from repro.schedulers.decima import DecimaScheduler
from repro.schedulers.fifo import FIFOScheduler, KubernetesDefaultScheduler
from repro.schedulers.greenhadoop import GreenHadoopProvisioner
from repro.schedulers.weighted_fair import WeightedFairScheduler
from repro.workloads.arrivals import JobSubmission

from conftest import (
    assert_valid_schedule,
    run_sim,
    single_job,
    staggered_jobs,
)


def two_jobs(flat=True):
    big = JobDAG([Stage(0, 4, 20.0)], name="big")
    small = JobDAG([Stage(0, 1, 2.0)], name="small")
    return [JobSubmission(0.0, big, 0), JobSubmission(0.5, small, 1)]


class TestFIFO:
    def test_oldest_job_first(self, flat_trace):
        subs = two_jobs()
        result = run_sim(FIFOScheduler(), subs, flat_trace, num_executors=4)
        first_by_start = min(result.trace.tasks, key=lambda t: t.start)
        assert first_by_start.job_id == 0

    def test_stages_in_dag_order(self, flat_trace):
        dag = chain_dag([2.0, 2.0, 2.0])
        result = run_sim(FIFOScheduler(), single_job(dag), flat_trace)
        starts = {
            t.stage_id: t.work_start for t in result.trace.tasks
        }
        assert starts[0] < starts[1] < starts[2]

    def test_over_assignment_grabs_stage_width(self, flat_trace):
        dag = JobDAG([Stage(0, 4, 10.0)])
        result = run_sim(FIFOScheduler(), single_job(dag), flat_trace, num_executors=4)
        starts = [t.start for t in result.trace.tasks]
        assert all(s == pytest.approx(0.0) for s in starts)

    def test_holds_executors_flag(self):
        assert FIFOScheduler.holds_executors is True
        assert KubernetesDefaultScheduler.holds_executors is False


class TestKubernetesDefault:
    def test_spreads_across_jobs(self, flat_trace):
        """The small job is served promptly despite the big job's demand."""
        subs = two_jobs()
        result = run_sim(
            KubernetesDefaultScheduler(), subs, flat_trace, num_executors=4
        )
        small_finish = result.finishes[1]
        fifo = run_sim(FIFOScheduler(), subs, flat_trace, num_executors=4)
        assert small_finish <= fifo.finishes[1]

    def test_valid_schedule(self, flat_trace, tiny_dag):
        subs = staggered_jobs([tiny_dag] * 4, gap=3.0)
        result = run_sim(KubernetesDefaultScheduler(), subs, flat_trace)
        assert_valid_schedule(result, subs)


class TestWeightedFair:
    def test_validation(self):
        with pytest.raises(ValueError):
            WeightedFairScheduler(weight_exponent=-1.0)

    def test_both_jobs_progress_concurrently(self, flat_trace):
        big = JobDAG([Stage(0, 8, 10.0)], name="big")
        small = JobDAG([Stage(0, 8, 10.0)], name="small")
        subs = [JobSubmission(0.0, big, 0), JobSubmission(0.0, small, 1)]
        result = run_sim(
            WeightedFairScheduler(), subs, flat_trace, num_executors=4
        )
        # both jobs hold executors during the first wave
        first_wave = [t for t in result.trace.tasks if t.start < 1.0]
        assert {t.job_id for t in first_wave} == {0, 1}

    def test_valid_schedule(self, flat_trace, tiny_dag):
        subs = staggered_jobs([tiny_dag] * 4, gap=2.0)
        result = run_sim(WeightedFairScheduler(), subs, flat_trace)
        assert_valid_schedule(result, subs)


class TestDecimaSurrogate:
    def test_is_probabilistic(self, flat_trace, tiny_dag):
        from repro.simulator.state import ClusterView, JobRuntime
        from repro.carbon.api import CarbonReading

        job = JobRuntime(0, tiny_dag, arrival_time=0.0)
        view = ClusterView(
            time=0.0, total_executors=4, busy_executors=0, quota=4,
            jobs={0: job},
            carbon=CarbonReading(0.0, 100.0, 50.0, 200.0),
        )
        scheduler = DecimaScheduler(seed=0)
        frontier = view.frontier_arrays(include_saturated=True)
        probs = scheduler._softmax(scheduler.scores_from_arrays(view, frontier))
        assert probs.shape == (len(frontier),)
        assert probs.sum() == pytest.approx(1.0)
        assert np.all(probs >= 0)

    def test_srpt_prefers_short_job(self, flat_trace):
        """With one executor free, Decima serves the short job first."""
        long_job = JobDAG([Stage(0, 1, 100.0)])
        short_job = JobDAG([Stage(0, 1, 1.0)])
        subs = [JobSubmission(0.0, long_job, 0), JobSubmission(0.0, short_job, 1)]
        wins = 0
        for seed in range(10):
            result = run_sim(
                DecimaScheduler(seed=seed), subs, flat_trace, num_executors=1
            )
            first = min(result.trace.tasks, key=lambda t: t.start)
            wins += first.job_id == 1
        assert wins >= 8  # strongly biased toward the short job

    def test_reset_restores_rng(self, flat_trace, tiny_dag):
        scheduler = DecimaScheduler(seed=7)
        subs = staggered_jobs([tiny_dag] * 3)
        a = run_sim(scheduler, subs, flat_trace)
        b = run_sim(scheduler, subs, flat_trace)  # engine resets the scheduler
        assert [t.start for t in a.trace.tasks] == [t.start for t in b.trace.tasks]

    def test_parallelism_moderation(self, flat_trace):
        """Decima divides the cluster across jobs instead of flooding one."""
        wide_a = JobDAG([Stage(0, 8, 10.0)])
        wide_b = JobDAG([Stage(0, 8, 10.0)])
        subs = [JobSubmission(0.0, wide_a, 0), JobSubmission(0.0, wide_b, 1)]
        result = run_sim(
            DecimaScheduler(seed=0), subs, flat_trace, num_executors=4
        )
        first_wave = [t for t in result.trace.tasks if t.start < 1.0]
        per_job = {0: 0, 1: 0}
        for t in first_wave:
            per_job[t.job_id] += 1
        assert per_job[0] <= 2 and per_job[1] <= 2

    def test_temperature_validation(self):
        with pytest.raises(ValueError):
            DecimaScheduler(temperature=0.0)

    def test_valid_schedule(self, flat_trace, tiny_dag):
        subs = staggered_jobs([tiny_dag] * 4, gap=2.0)
        result = run_sim(DecimaScheduler(seed=1), subs, flat_trace)
        assert_valid_schedule(result, subs)


class TestGreenHadoop:
    def test_validation(self, square_trace):
        with pytest.raises(ValueError):
            GreenHadoopProvisioner(square_trace, theta=1.5)
        with pytest.raises(ValueError):
            GreenHadoopProvisioner(square_trace, horizon_steps=0)

    def test_green_fraction_range(self, square_trace):
        gh = GreenHadoopProvisioner(square_trace)
        for t in (0.0, 700.0, 1300.0):
            assert 0.0 <= gh.green_fraction(t) <= 1.0

    def test_green_fraction_inverts_carbon(self, square_trace):
        gh = GreenHadoopProvisioner(square_trace)
        low_carbon_t = 0.0  # value 50
        high_carbon_t = 12 * 60.0  # value 450
        assert gh.green_fraction(low_carbon_t) > gh.green_fraction(high_carbon_t)

    def test_flat_trace_all_green(self, flat_trace):
        gh = GreenHadoopProvisioner(flat_trace)
        assert gh.green_fraction(0.0) == 1.0

    def test_quota_reduced_during_high_carbon(self, square_trace, tiny_dag):
        gh = GreenHadoopProvisioner(square_trace, theta=0.9)
        subs = single_job(tiny_dag, arrival=12 * 60.0)  # arrive in high block
        result = run_sim(
            FIFOScheduler(), subs, square_trace, num_executors=4,
            provisioner=gh,
        )
        quotas = [q.quota for q in result.trace.quotas]
        assert min(quotas) < 4

    def test_theta_zero_behaves_like_baseline(self, square_trace, tiny_dag):
        """theta=0 uses the brown window only: full-speed provisioning."""
        gh = GreenHadoopProvisioner(square_trace, theta=0.0)
        subs = single_job(tiny_dag, arrival=12 * 60.0)
        with_gh = run_sim(
            FIFOScheduler(), subs, square_trace, num_executors=4, provisioner=gh
        )
        without = run_sim(FIFOScheduler(), subs, square_trace, num_executors=4)
        assert with_gh.ect == pytest.approx(without.ect, rel=0.25)
