"""Edge-case tests across modules: simultaneous events, degenerate inputs,
wrap-around time, and combined wrapper scenarios."""

import pytest

from repro.carbon.api import CarbonIntensityAPI, CarbonReading
from repro.core.cap import CAPProvisioner
from repro.core.pcaps import PCAPSScheduler
from repro.dag.graph import JobDAG, Stage
from repro.schedulers.decima import DecimaScheduler
from repro.schedulers.fifo import FIFOScheduler, KubernetesDefaultScheduler
from repro.schedulers.greenhadoop import GreenHadoopProvisioner
from repro.simulator.state import ClusterView, JobRuntime
from repro.simulator.trace import jobs_in_system_series
from repro.workloads.arrivals import JobSubmission

from conftest import assert_valid_schedule, make_trace, run_sim, single_job


class TestSimultaneousEvents:
    def test_all_jobs_arrive_at_once(self, flat_trace):
        dag = JobDAG([Stage(0, 2, 5.0)])
        subs = [JobSubmission(0.0, dag, i) for i in range(4)]
        result = run_sim(KubernetesDefaultScheduler(), subs, flat_trace)
        assert_valid_schedule(result, subs)
        assert len(result.finishes) == 4

    def test_arrival_coincides_with_task_completion(self, flat_trace):
        dag = JobDAG([Stage(0, 1, 10.0)])
        subs = [
            JobSubmission(0.0, dag, 0),
            JobSubmission(10.0, dag, 1),  # exactly when job 0's task ends
        ]
        result = run_sim(
            KubernetesDefaultScheduler(), subs, flat_trace, num_executors=1
        )
        assert result.finishes[1] == pytest.approx(20.0)

    def test_arrival_on_carbon_boundary(self, square_trace):
        dag = JobDAG([Stage(0, 1, 5.0)])
        subs = [JobSubmission(12 * 60.0, dag, 0)]  # exactly at block edge
        result = run_sim(KubernetesDefaultScheduler(), subs, square_trace)
        assert result.finishes[0] == pytest.approx(12 * 60.0 + 5.0)


class TestLongHorizons:
    def test_simulation_wraps_past_trace_end(self):
        """A job that outlives the trace still completes; carbon wraps."""
        trace = make_trace([100.0, 200.0], step_seconds=60.0)  # 120 s trace
        dag = JobDAG([Stage(0, 1, 500.0)])  # outlives several wraps
        result = run_sim(KubernetesDefaultScheduler(), single_job(dag), trace)
        assert result.ect == pytest.approx(500.0)
        # footprint = integral over 500 s of the wrapping square wave
        expected = trace.integrate(0.0, 500.0)
        assert result.carbon_footprint == pytest.approx(expected)

    def test_deferral_survives_wrap(self, square_trace):
        """PCAPS deferring near the trace end wakes correctly after wrap."""
        dag = JobDAG(
            [
                Stage(0, 1, 30.0),
                Stage(1, 1, 30.0, parents=(0,)),
                Stage(2, 1, 30.0, parents=(0,)),
            ]
        )
        near_end = square_trace.duration_seconds - 6 * 60.0
        subs = [JobSubmission(near_end, dag, 0)]
        result = run_sim(
            PCAPSScheduler(DecimaScheduler(seed=0), gamma=0.9),
            subs,
            square_trace,
            num_executors=2,
        )
        assert result.finishes[0] > near_end


class TestCombinedWrappers:
    def test_cap_with_kubernetes_cap(self, square_trace, tiny_dag):
        """Cluster-wide quota and per-job cap compose without deadlock."""
        subs = [JobSubmission(i * 10.0, tiny_dag, i) for i in range(4)]
        cap = CAPProvisioner(total_executors=4, min_quota=1)
        result = run_sim(
            KubernetesDefaultScheduler(), subs, square_trace,
            num_executors=4, per_job_cap=2, provisioner=cap,
        )
        assert_valid_schedule(result, subs)

    def test_greenhadoop_with_hoarding_fifo(self, square_trace, tiny_dag):
        gh = GreenHadoopProvisioner(square_trace, theta=0.8)
        subs = [JobSubmission(i * 20.0, tiny_dag, i) for i in range(3)]
        result = run_sim(
            FIFOScheduler(), subs, square_trace, num_executors=4,
            provisioner=gh,
        )
        assert_valid_schedule(result, subs)

    def test_pcaps_single_executor(self, square_trace, tiny_dag):
        """K=1: the progress guarantee dominates; everything completes."""
        result = run_sim(
            PCAPSScheduler(DecimaScheduler(seed=0), gamma=1.0),
            single_job(tiny_dag),
            square_trace,
            num_executors=1,
        )
        assert result.ect >= tiny_dag.total_work


class TestGreenHadoopWindows:
    def test_quota_full_when_no_outstanding_work(self, square_trace):
        gh = GreenHadoopProvisioner(square_trace)
        job = JobRuntime(0, JobDAG([Stage(0, 1, 1.0)]), arrival_time=0.0)
        job.stages[0].launch(1)
        job.record_task_finish(0, now=1.0)  # job done
        view = ClusterView(
            time=1.0, total_executors=8, busy_executors=0, quota=8,
            jobs={0: job},
            carbon=CarbonReading(1.0, 100.0, 50.0, 450.0),
        )
        assert gh.quota(view) == 8

    def test_more_work_means_larger_quota(self, square_trace):
        gh = GreenHadoopProvisioner(square_trace, theta=0.5)

        def view_for(work_tasks):
            job = JobRuntime(
                0,
                JobDAG([Stage(0, work_tasks, 100.0)]),
                arrival_time=0.0,
            )
            return ClusterView(
                time=12 * 60.0, total_executors=8, busy_executors=0, quota=8,
                jobs={0: job},
                carbon=CarbonReading(12 * 60.0, 450.0, 50.0, 450.0),
            )

        small = gh.quota(view_for(1))
        large = gh.quota(view_for(64))
        assert large >= small

    def test_theta_one_is_most_conservative(self, square_trace):
        def quota_at_theta(theta):
            gh = GreenHadoopProvisioner(square_trace, theta=theta)
            job = JobRuntime(
                0, JobDAG([Stage(0, 16, 100.0)]), arrival_time=0.0
            )
            view = ClusterView(
                time=12 * 60.0, total_executors=8, busy_executors=0, quota=8,
                jobs={0: job},
                carbon=CarbonReading(12 * 60.0, 450.0, 50.0, 450.0),
            )
            return gh.quota(view)

        assert quota_at_theta(1.0) <= quota_at_theta(0.0)


class TestSeriesEdgeCases:
    def test_jobs_in_system_missing_finish_uses_horizon(self):
        times, counts = jobs_in_system_series(
            arrivals={0: 0.0}, finishes={}, t_end=10.0, resolution=1.0
        )
        assert counts[5] == 1  # still in system

    def test_quota_negative_room_yields_no_slots(self):
        job = JobRuntime(0, JobDAG([Stage(0, 4, 1.0)]), arrival_time=0.0)
        view = ClusterView(
            time=0.0, total_executors=4, busy_executors=3, quota=2,
            jobs={0: job},
            carbon=CarbonReading(0.0, 100.0, 50.0, 200.0),
        )
        assert not view.frontier_arrays(include_saturated=True).slots.any()

    def test_carbon_api_wraps_bounds(self):
        trace = make_trace([100.0, 300.0], step_seconds=60.0)
        api = CarbonIntensityAPI(trace, lookahead_steps=2)
        # Past the end, readings wrap onto the same series.
        reading = api.reading(10 * 60.0)
        assert reading.intensity in (100.0, 300.0)
        assert reading.lower_bound == 100.0
        assert reading.upper_bound == 300.0
