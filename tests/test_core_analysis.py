"""Unit tests for the theory module (stretch factors, savings identities)."""

import pytest

from repro.core.analysis import (
    cap_stretch_factor,
    carbon_savings,
    deferral_fraction,
    graham_bound,
    min_quota_from_trace,
    pcaps_stretch_factor,
    savings_decomposition,
)
from repro.core.pcaps import PCAPSScheduler
from repro.dag.graph import JobDAG, Stage
from repro.schedulers.decima import DecimaScheduler
from repro.schedulers.fifo import KubernetesDefaultScheduler
from repro.simulator.trace import ScheduleTrace

from conftest import run_sim, staggered_jobs


class TestBounds:
    def test_graham(self):
        assert graham_bound(1) == 1.0
        assert graham_bound(2) == 1.5
        assert graham_bound(10) == pytest.approx(1.9)
        with pytest.raises(ValueError):
            graham_bound(0)

    def test_pcaps_stretch_at_zero_deferral_is_one(self):
        """Theorem 4.3: D(0, c) = 0 implies CSF = 1."""
        assert pcaps_stretch_factor(0.0, 10) == 1.0

    def test_pcaps_stretch_grows_with_deferrals(self):
        assert pcaps_stretch_factor(0.5, 10) > pcaps_stretch_factor(0.1, 10)
        with pytest.raises(ValueError):
            pcaps_stretch_factor(1.5, 10)

    def test_cap_stretch_full_quota_is_one(self):
        """Theorem 4.5: M = K means CAP never throttles; CSF = 1."""
        assert cap_stretch_factor(10, 10) == pytest.approx(1.0)

    def test_cap_stretch_grows_as_quota_shrinks(self):
        assert cap_stretch_factor(10, 2) > cap_stretch_factor(10, 5) > 1.0

    def test_cap_stretch_formula(self):
        # (K/M)^2 (2M-1)/(2K-1) at K=10, M=5
        assert cap_stretch_factor(10, 5) == pytest.approx(4 * 9 / 19)

    def test_cap_stretch_validation(self):
        with pytest.raises(ValueError):
            cap_stretch_factor(10, 0)
        with pytest.raises(ValueError):
            cap_stretch_factor(10, 11)


class TestDeferralFraction:
    def test_zero_deferrals(self):
        assert deferral_fraction(0, 5.0, 100.0) == 0.0

    def test_clipped_at_one(self):
        assert deferral_fraction(1000, 5.0, 100.0) == 1.0

    def test_proportional(self):
        assert deferral_fraction(4, 5.0, 100.0) == pytest.approx(0.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            deferral_fraction(1, 1.0, 0.0)
        with pytest.raises(ValueError):
            deferral_fraction(-1, 1.0, 10.0)


class TestMinQuota:
    def test_from_trace(self):
        trace = ScheduleTrace(total_executors=8)
        trace.add_quota(0.0, 8)
        trace.add_quota(1.0, 3)
        assert min_quota_from_trace(trace, default=8) == 3

    def test_default_when_empty(self):
        trace = ScheduleTrace(total_executors=8)
        assert min_quota_from_trace(trace, default=8) == 8


class TestSavingsDecomposition:
    def _runs(self, square_trace):
        dags = [JobDAG([Stage(0, 3, 50.0)]) for _ in range(6)]
        subs = staggered_jobs(dags, gap=80.0)
        base = run_sim(
            KubernetesDefaultScheduler(), subs, square_trace, num_executors=3
        )
        aware = run_sim(
            PCAPSScheduler(DecimaScheduler(seed=0), gamma=0.8),
            subs,
            square_trace,
            num_executors=3,
        )
        return base, aware

    def test_identity_holds(self, square_trace):
        """Theorem 4.4 decomposition equals the direct footprint difference."""
        base, aware = self._runs(square_trace)
        decomposition = savings_decomposition(base, aware)
        assert decomposition.predicted_savings == pytest.approx(
            decomposition.measured_savings, rel=1e-6, abs=1e-6
        )

    def test_measured_matches_definition(self, square_trace):
        base, aware = self._runs(square_trace)
        assert carbon_savings(base, aware) == pytest.approx(
            base.carbon_footprint - aware.carbon_footprint
        )

    def test_s_minus_above_c_tail_when_saving(self, square_trace):
        """Positive savings require deferred work to land at lower intensity
        than it avoided (Theorem 4.4's interpretation)."""
        base, aware = self._runs(square_trace)
        d = savings_decomposition(base, aware)
        if d.measured_savings > 0 and d.excess_work > 0:
            assert d.s_minus > d.c_tail + d.s_plus - 1e-9

    def test_identical_runs_decompose_to_zero(self, square_trace):
        dags = [JobDAG([Stage(0, 2, 30.0)]) for _ in range(3)]
        subs = staggered_jobs(dags, gap=40.0)
        a = run_sim(KubernetesDefaultScheduler(), subs, square_trace)
        b = run_sim(KubernetesDefaultScheduler(), subs, square_trace)
        d = savings_decomposition(a, b)
        assert d.measured_savings == pytest.approx(0.0, abs=1e-9)
        assert d.predicted_savings == pytest.approx(0.0, abs=1e-9)

    def test_rejects_mismatched_traces(self, square_trace, flat_trace):
        dags = [JobDAG([Stage(0, 1, 10.0)])]
        subs = staggered_jobs(dags)
        a = run_sim(KubernetesDefaultScheduler(), subs, square_trace)
        b = run_sim(KubernetesDefaultScheduler(), subs, flat_trace)
        with pytest.raises(ValueError):
            savings_decomposition(a, b)
