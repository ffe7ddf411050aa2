"""Unit tests for experiment metrics and normalization."""

import pytest

from repro.schedulers.fifo import KubernetesDefaultScheduler
from repro.simulator.metrics import NormalizedMetrics, compare_to_baseline
from repro.dag.graph import JobDAG, Stage

from conftest import make_trace, run_sim, single_job, staggered_jobs


@pytest.fixture
def simple_result(flat_trace):
    dag = JobDAG([Stage(0, 2, 10.0)])
    return run_sim(
        KubernetesDefaultScheduler(), single_job(dag), flat_trace, num_executors=2
    )


class TestAbsoluteMetrics:
    def test_jct_and_ect(self, simple_result):
        assert simple_result.avg_jct == pytest.approx(10.0)
        assert simple_result.ect == pytest.approx(10.0)

    def test_jct_excludes_queueing_before_arrival(self, flat_trace):
        dag = JobDAG([Stage(0, 1, 5.0)])
        subs = staggered_jobs([dag, dag], gap=100.0)
        result = run_sim(KubernetesDefaultScheduler(), subs, flat_trace)
        assert result.avg_jct == pytest.approx(5.0)
        assert result.ect == pytest.approx(105.0)

    def test_carbon_cached(self, simple_result):
        first = simple_result.carbon_footprint
        assert simple_result.carbon_footprint == first

    def test_utilization_bounds(self, simple_result):
        assert 0.0 < simple_result.utilization() <= 1.0

    def test_utilization_full_when_perfectly_packed(self, flat_trace):
        dag = JobDAG([Stage(0, 2, 10.0)])
        result = run_sim(
            KubernetesDefaultScheduler(), single_job(dag), flat_trace,
            num_executors=2,
        )
        assert result.utilization() == pytest.approx(1.0)

    def test_per_job_carbon_keys(self, flat_trace, tiny_dag):
        subs = staggered_jobs([tiny_dag] * 3)
        result = run_sim(KubernetesDefaultScheduler(), subs, flat_trace)
        assert set(result.per_job_carbon()) == {0, 1, 2}


class TestNormalization:
    def test_identity_comparison(self, simple_result):
        m = compare_to_baseline(simple_result, simple_result)
        assert m.carbon_reduction_pct == pytest.approx(0.0)
        assert m.ect_ratio == pytest.approx(1.0)
        assert m.jct_ratio == pytest.approx(1.0)

    def test_carbon_reduction_sign(self, flat_trace):
        """A schedule shifted into a cheaper period reduces carbon."""
        dag = JobDAG([Stage(0, 1, 10.0)])
        cheap_late = make_trace([400.0] * 5 + [50.0] * 100)
        early = run_sim(
            KubernetesDefaultScheduler(), single_job(dag, arrival=0.0), cheap_late
        )
        late = run_sim(
            KubernetesDefaultScheduler(),
            single_job(dag, arrival=5 * 60.0),
            cheap_late,
        )
        m = compare_to_baseline(late, early)
        assert m.carbon_reduction_pct > 0

    def test_as_row(self):
        m = NormalizedMetrics("s", "b", 10.0, 1.1, 1.2)
        assert m.as_row() == ("s", 10.0, 1.1, 1.2)
