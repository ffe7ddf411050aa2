"""Unit tests for the theory module (stretch factors, savings identities)."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.carbon.grids import GRID_CODES, PAPER_TRACE_HOURS
from repro.core.analysis import (
    average_step_savings,
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
from repro.experiments.runner import (
    SCHEDULER_NAMES,
    ExperimentConfig,
    carbon_trace_for,
    run_experiment,
)
from repro.schedulers.decima import DecimaScheduler
from repro.schedulers.fifo import KubernetesDefaultScheduler
from repro.simulator.trace import ScheduleTrace
from repro.workloads.batch import WorkloadSpec

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


#: The baselines the paper normalizes to, each in the mode it runs in:
#: FIFO in standalone mode (Table 3), the Kubernetes default in Kubernetes
#: mode (Table 2) and Decima in standalone mode (Fig. 13).
BASELINE_MODES = {
    "fifo": "standalone",
    "k8s-default": "kubernetes",
    "decima": "standalone",
}
MATCHUPS = [
    (baseline, scheduler)
    for baseline in BASELINE_MODES
    for scheduler in SCHEDULER_NAMES
    if scheduler != baseline
]
BATCH = WorkloadSpec(family="tpch", num_jobs=3, tpch_scales=(2,))


@st.composite
def clusters(draw) -> tuple[int, int, int]:
    """``(K, B, per-job cap)``: K in 4-8 and CAP's floor B in 1-K/2."""
    executors = draw(st.integers(min_value=4, max_value=8))
    return (
        executors,
        draw(st.integers(min_value=1, max_value=executors // 2)),
        draw(st.integers(min_value=1, max_value=executors)),
    )


def matchup_property(test):
    """Drive ``test`` over small TPC-H matchups on any Table 1 grid slice,
    plus a pinned Kubernetes-mode case whose FIFO run never falls behind
    the baseline (``W = 0``) yet adds carbon."""
    return settings(max_examples=3, deadline=None)(
        given(
            workload=st.just(BATCH),
            grid=st.sampled_from(GRID_CODES),
            start=st.integers(min_value=0, max_value=PAPER_TRACE_HOURS - 1),
            cluster=clusters(),
            seed=st.integers(min_value=0, max_value=2**16),
        )(
            example(
                workload=WorkloadSpec(
                    family="tpch", num_jobs=4, tpch_scales=(2, 10)
                ),
                grid="ZA",
                start=0,
                cluster=(8, 1, 4),
                seed=2,
            )(test)
        )
    )


def run_matchup_pair(baseline, scheduler, workload, grid, start, cluster, seed):
    """The baseline's and the other scheduler's runs on one carbon trace."""
    executors, min_quota, per_job_cap = cluster
    config = ExperimentConfig(
        scheduler=baseline,
        grid=grid,
        num_executors=executors,
        mode=BASELINE_MODES[baseline],
        per_job_cap=per_job_cap,
        workload=workload,
        trace_start_step=start,
        cap_min_quota=min_quota,
        seed=seed,
    )
    trace = carbon_trace_for(config)
    return (
        run_experiment(config, trace),
        run_experiment(config.with_scheduler(scheduler), trace),
    )


@pytest.mark.parametrize("baseline,scheduler", MATCHUPS)
@matchup_property
def test_savings_identity(baseline, scheduler, workload, grid, start, cluster, seed):
    """Theorems 4.4/4.6: the decomposition predicts the measured savings
    exactly, also when a scheduler that hoards executors (FIFO,
    GreenHadoop, CAP-FIFO) keeps idle executors powered on either side."""
    base, aware = run_matchup_pair(
        baseline, scheduler, workload, grid, start, cluster, seed
    )
    d = savings_decomposition(base, aware)
    assert np.isclose(d.predicted_savings, d.measured_savings, rtol=1e-9)
    if d.excess_work > 0:
        theorem = d.excess_work * (d.s_minus - d.s_plus - d.c_tail)
        assert np.isclose(theorem, d.predicted_savings, rtol=1e-9)
    else:
        assert d.s_minus == d.s_plus == d.c_tail == 0.0


@pytest.mark.parametrize("baseline,scheduler", MATCHUPS)
@matchup_property
def test_step_savings_sum_to_measured(
    baseline, scheduler, workload, grid, start, cluster, seed
):
    """Corollaries B.1/B.2: the per-step savings series sums to the
    measured savings (Definition 3.2)."""
    base, aware = run_matchup_pair(
        baseline, scheduler, workload, grid, start, cluster, seed
    )
    assert np.isclose(
        average_step_savings(base, aware).sum(),
        carbon_savings(base, aware),
        rtol=1e-9,
    )
