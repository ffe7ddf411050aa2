"""Tests for the Corollary B.1/B.2 quantities and carbon pricing."""

import numpy as np
import pytest

from repro.core.analysis import average_step_savings, utilization_by_intensity
from repro.core.cap import CAPProvisioner
from repro.dag.graph import JobDAG, Stage
from repro.schedulers.fifo import KubernetesDefaultScheduler
from repro.workloads.arrivals import JobSubmission

from conftest import run_sim


def heavy_jobs(n=8, tasks=4, dur=90.0, start=0.0, gap=60.0):
    dags = [JobDAG([Stage(0, tasks, dur)]) for _ in range(n)]
    return [
        JobSubmission(start + i * gap, dag, i) for i, dag in enumerate(dags)
    ]


class TestAverageStepSavings:
    def test_sums_to_total_savings(self, square_trace):
        subs = heavy_jobs(start=12 * 60.0)
        base = run_sim(
            KubernetesDefaultScheduler(), subs, square_trace, num_executors=4
        )
        cap = CAPProvisioner(total_executors=4, min_quota=1)
        aware = run_sim(
            KubernetesDefaultScheduler(), subs, square_trace, num_executors=4,
            provisioner=cap,
        )
        series = average_step_savings(base, aware)
        assert series.sum() == pytest.approx(
            base.carbon_footprint - aware.carbon_footprint, rel=1e-9
        )

    def test_identical_runs_zero(self, square_trace):
        subs = heavy_jobs(n=3)
        a = run_sim(KubernetesDefaultScheduler(), subs, square_trace)
        b = run_sim(KubernetesDefaultScheduler(), subs, square_trace)
        assert np.allclose(average_step_savings(a, b), 0.0)

    def test_rejects_mismatched_traces(self, square_trace, flat_trace):
        subs = heavy_jobs(n=2)
        a = run_sim(KubernetesDefaultScheduler(), subs, square_trace)
        b = run_sim(KubernetesDefaultScheduler(), subs, flat_trace)
        with pytest.raises(ValueError):
            average_step_savings(a, b)


class TestUtilizationByIntensity:
    def test_profile_within_bounds(self, square_trace):
        subs = heavy_jobs(start=12 * 60.0)
        result = run_sim(
            KubernetesDefaultScheduler(), subs, square_trace, num_executors=4
        )
        profile = utilization_by_intensity(result, num_bins=4)
        assert profile
        for center, utilization in profile:
            assert 0.0 <= utilization <= 1.0
            assert 50.0 <= center <= 450.0

    def test_cap_throttles_at_high_intensity(self, square_trace):
        """Corollary B.2's premise: CAP's ρ(c) decreases with c."""
        subs = heavy_jobs(n=10, start=0.0, gap=120.0)
        cap = CAPProvisioner(total_executors=4, min_quota=1)
        result = run_sim(
            KubernetesDefaultScheduler(), subs, square_trace, num_executors=4,
            provisioner=cap,
        )
        profile = dict(utilization_by_intensity(result, num_bins=2))
        low_c = min(profile)
        high_c = max(profile)
        assert profile[high_c] <= profile[low_c] + 1e-9

    def test_rejects_bad_bins(self, square_trace):
        subs = heavy_jobs(n=2)
        result = run_sim(KubernetesDefaultScheduler(), subs, square_trace)
        with pytest.raises(ValueError):
            utilization_by_intensity(result, num_bins=0)


class TestCarbonPricing:
    def test_cost_positive_and_linear_in_price(self, square_trace):
        subs = heavy_jobs(n=3)
        result = run_sim(KubernetesDefaultScheduler(), subs, square_trace)
        at_100 = result.carbon_cost_usd(price_per_ton_usd=100.0)
        at_200 = result.carbon_cost_usd(price_per_ton_usd=200.0)
        assert at_100 > 0
        assert at_200 == pytest.approx(2 * at_100)

    def test_cost_scales_with_power(self, square_trace):
        subs = heavy_jobs(n=3)
        result = run_sim(KubernetesDefaultScheduler(), subs, square_trace)
        half = result.carbon_cost_usd(executor_power_kw=0.125)
        full = result.carbon_cost_usd(executor_power_kw=0.25)
        assert full == pytest.approx(2 * half)

    def test_validation(self, square_trace):
        subs = heavy_jobs(n=1)
        result = run_sim(KubernetesDefaultScheduler(), subs, square_trace)
        with pytest.raises(ValueError):
            result.carbon_cost_usd(price_per_ton_usd=-1.0)
        with pytest.raises(ValueError):
            result.carbon_cost_usd(executor_power_kw=0.0)
