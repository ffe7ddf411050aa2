"""Behavioural tests for CAP (Section 4.2)."""

import pickle

import pytest

from repro.carbon.api import CarbonReading
from repro.core.cap import CAPProvisioner
from repro.dag.graph import JobDAG, Stage
from repro.schedulers.fifo import FIFOScheduler, KubernetesDefaultScheduler
from repro.simulator.state import ClusterView
from repro.workloads.arrivals import JobSubmission

from conftest import (
    assert_valid_schedule,
    run_sim,
    single_job,
    staggered_jobs,
)


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            CAPProvisioner(total_executors=0, min_quota=1)
        with pytest.raises(ValueError):
            CAPProvisioner(total_executors=5, min_quota=0)
        with pytest.raises(ValueError):
            CAPProvisioner(total_executors=5, min_quota=6)

    def test_name(self):
        cap = CAPProvisioner(total_executors=10, min_quota=2)
        assert "B=2" in cap.name


class TestQuotaBehaviour:
    def test_quota_low_during_high_carbon(self, square_trace, tiny_dag):
        cap = CAPProvisioner(total_executors=4, min_quota=1)
        subs = single_job(tiny_dag, arrival=12 * 60.0)  # high-carbon block
        result = run_sim(
            KubernetesDefaultScheduler(), subs, square_trace, num_executors=4,
            provisioner=cap,
        )
        assert min(q.quota for q in result.trace.quotas) == 1

    def test_quota_full_during_low_carbon(self, square_trace, tiny_dag):
        cap = CAPProvisioner(total_executors=4, min_quota=1)
        subs = single_job(tiny_dag, arrival=0.0)  # low-carbon block (50)
        result = run_sim(
            KubernetesDefaultScheduler(), subs, square_trace, num_executors=4,
            provisioner=cap,
        )
        assert result.trace.quotas[0].quota == 4

    def test_flat_trace_never_throttles(self, flat_trace, tiny_dag):
        cap = CAPProvisioner(total_executors=4, min_quota=1)
        subs = staggered_jobs([tiny_dag] * 3)
        with_cap = run_sim(
            KubernetesDefaultScheduler(), subs, flat_trace, provisioner=cap
        )
        without = run_sim(KubernetesDefaultScheduler(), subs, flat_trace)
        assert with_cap.ect == pytest.approx(without.ect)
        assert with_cap.carbon_footprint == pytest.approx(without.carbon_footprint)

    def test_min_quota_seen(self, square_trace, tiny_dag):
        cap = CAPProvisioner(total_executors=4, min_quota=2)
        subs = single_job(tiny_dag, arrival=12 * 60.0)
        run_sim(
            KubernetesDefaultScheduler(), subs, square_trace, num_executors=4,
            provisioner=cap,
        )
        assert cap.min_quota_seen() >= 2

    def test_reset_clears_history(self, square_trace, tiny_dag):
        cap = CAPProvisioner(total_executors=4, min_quota=2)
        run_sim(
            KubernetesDefaultScheduler(),
            single_job(tiny_dag, arrival=12 * 60.0),  # high-carbon block
            square_trace, num_executors=4, provisioner=cap,
        )
        assert cap.min_quota_seen() < 4
        cap.reset()
        assert cap.min_quota_seen() == 4

    def test_pickled_size_does_not_grow_with_quota_calls(self):
        """A service run asks for a quota at every scheduling step and
        checkpoints the provisioner with the engine: its pickled state
        must not grow with the number of asks."""

        def pickled_after(calls: int) -> int:
            cap = CAPProvisioner(total_executors=10, min_quota=2)
            for i in range(calls):
                reading = CarbonReading(
                    time=float(i),
                    intensity=50.0 + (i % 9) * 50.0,
                    lower_bound=50.0,
                    upper_bound=450.0,
                )
                cap.quota(
                    ClusterView(
                        time=float(i), total_executors=10, busy_executors=0,
                        quota=10, jobs={}, carbon=reading,
                    )
                )
            assert cap.min_quota_seen() == 2
            return len(pickle.dumps(cap))

        assert pickled_after(10) == pickled_after(10_000)

    def test_thresholds_rebuilt_on_bound_change(self, square_trace):
        cap = CAPProvisioner(total_executors=8, min_quota=2)
        t1 = cap.thresholds_for(50.0, 450.0)
        t2 = cap.thresholds_for(50.0, 450.0)
        assert t1 is t2  # cached
        t3 = cap.thresholds_for(40.0, 500.0)
        assert t3 is not t1


class TestParallelismScaling:
    def test_scaled_by_quota_ratio(self, square_trace):
        cap = CAPProvisioner(total_executors=10, min_quota=2)
        cap._last_quota = 5
        assert cap.scale_parallelism(8, view=None) == 4  # ceil(8 * 5/10)

    def test_scaling_disabled(self):
        cap = CAPProvisioner(
            total_executors=10, min_quota=2, scale_parallelism=False
        )
        cap._last_quota = 5
        assert cap.scale_parallelism(8, view=None) == 8

    def test_at_least_one(self):
        cap = CAPProvisioner(total_executors=100, min_quota=1)
        cap._last_quota = 1
        assert cap.scale_parallelism(3, view=None) == 1


class TestEndToEnd:
    def test_carbon_savings_on_square_wave(self, square_trace):
        """CAP shifts work out of high-carbon blocks and saves carbon."""
        # Heavy jobs arriving through the high-carbon block: the quota of 1
        # forces most of their work past the block boundary.
        dags = [JobDAG([Stage(0, 4, 90.0)]) for _ in range(10)]
        subs = [
            JobSubmission(12 * 60.0 + i * 60.0, dag, i)
            for i, dag in enumerate(dags)
        ]
        base = run_sim(
            KubernetesDefaultScheduler(), subs, square_trace, num_executors=4
        )
        cap = CAPProvisioner(total_executors=4, min_quota=1)
        capped = run_sim(
            KubernetesDefaultScheduler(), subs, square_trace, num_executors=4,
            provisioner=cap,
        )
        assert capped.carbon_footprint < base.carbon_footprint
        assert capped.ect >= base.ect  # the carbon-time trade-off

    def test_valid_schedule_under_cap(self, square_trace, tiny_dag):
        cap = CAPProvisioner(total_executors=4, min_quota=1)
        subs = staggered_jobs([tiny_dag] * 5, gap=15.0)
        result = run_sim(
            KubernetesDefaultScheduler(), subs, square_trace, provisioner=cap
        )
        assert_valid_schedule(result, subs)

    def test_works_with_hoarding_fifo(self, square_trace, tiny_dag):
        cap = CAPProvisioner(total_executors=4, min_quota=1)
        subs = staggered_jobs([tiny_dag] * 4, gap=15.0)
        result = run_sim(FIFOScheduler(), subs, square_trace, provisioner=cap)
        assert_valid_schedule(result, subs)
