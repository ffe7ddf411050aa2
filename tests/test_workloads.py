"""Unit tests for the workload generators (TPC-H, Alibaba, arrivals)."""

import numpy as np
import pytest

from repro.workloads.alibaba import (
    ALIBABA_DURATION_SCALE,
    ALIBABA_MEAN_DURATION_S,
    AlibabaWorkloadModel,
    alibaba_job,
    random_alibaba_batch,
)
from repro.workloads.arrivals import (
    JobSubmission,
    poisson_arrival_times,
    submissions_from_dags,
)
from repro.workloads.batch import WorkloadSpec, build_workload
from repro.workloads.tpch import (
    TPCH_QUERIES,
    TPCH_SCALE_DURATIONS,
    _shared_tpch_job,
    random_tpch_batch,
    tpch_job,
    tpch_query_catalog,
)
from repro.dag.graph import JobDAG


class TestTPCH:
    def test_22_queries(self):
        assert len(TPCH_QUERIES) == 22

    @pytest.mark.parametrize("query", TPCH_QUERIES)
    def test_every_query_builds_valid_dag(self, query):
        dag = tpch_job(query, 10)
        assert isinstance(dag, JobDAG)
        assert len(dag) >= 3
        assert dag.total_work > 0

    @pytest.mark.parametrize("scale", [2, 10, 50])
    def test_average_duration_matches_paper(self, scale):
        total = sum(tpch_job(q, scale).total_work for q in TPCH_QUERIES)
        average = total / len(TPCH_QUERIES)
        assert average == pytest.approx(TPCH_SCALE_DURATIONS[scale], rel=0.02)

    def test_scales_ordered(self):
        q5 = [tpch_job("q5", s).total_work for s in (2, 10, 50)]
        assert q5[0] < q5[1] < q5[2]

    def test_deterministic_shape(self):
        a, b = tpch_job("q3", 10), tpch_job("q3", 10)
        assert a.stage_ids() == b.stage_ids()
        assert all(
            a.stage(s).num_tasks == b.stage(s).num_tasks for s in a.stage_ids()
        )

    def test_unknown_query_rejected(self):
        with pytest.raises(ValueError):
            tpch_job("q99", 10)

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            tpch_job("q1", 7)

    @pytest.mark.parametrize("scale", sorted(TPCH_SCALE_DURATIONS))
    def test_deterministic_dags_are_shared(self, scale):
        for query in TPCH_QUERIES:
            assert tpch_job(query, scale) is tpch_job(query, scale)
        assert tpch_job("q1", scale) is not tpch_job("q2", scale)

    def test_jitter_builds_a_fresh_dag_and_leaves_the_memo_alone(self):
        shared = tpch_job("q4", 10)
        before = _shared_tpch_job.cache_info()
        jittered = tpch_job("q4", 10, duration_jitter=0.2, seed=3)
        again = tpch_job("q4", 10, duration_jitter=0.2, seed=3)
        assert _shared_tpch_job.cache_info() == before
        assert jittered is not again and shared not in (jittered, again)
        assert jittered.total_work == again.total_work != shared.total_work
        assert tpch_job("q4", 10) is shared

    def test_jitter_changes_duration(self):
        plain = tpch_job("q1", 10)
        jittered = tpch_job("q1", 10, duration_jitter=0.3, seed=5)
        assert plain.total_work != jittered.total_work

    def test_catalog_matches_queries(self):
        catalog = tpch_query_catalog()
        assert len(catalog) == 22
        heavy = next(s for s in catalog if s.query == "q9")
        light = next(s for s in catalog if s.query == "q6")
        assert heavy.complexity > light.complexity

    def test_join_stage_has_two_parents(self):
        dag = tpch_job("q5", 10)  # 6 scans -> 5 joins
        join_parent_counts = [
            len(dag.stage(s).parents)
            for s in dag.stage_ids()
            if dag.stage(s).name and "join" in dag.stage(s).name
        ]
        assert join_parent_counts and all(c == 2 for c in join_parent_counts)

    def test_batch_sampling(self):
        batch = random_tpch_batch(10, seed=0)
        assert len(batch) == 10
        assert random_tpch_batch(10, seed=0)[3].name == batch[3].name

    def test_batch_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            random_tpch_batch(0)


class TestAlibaba:
    def test_mean_nodes_near_66(self):
        jobs = random_alibaba_batch(200, seed=0)
        mean_nodes = np.mean([len(j) for j in jobs])
        assert 40 <= mean_nodes <= 100  # paper: 66 on average

    def test_mean_duration_near_paper(self):
        jobs = random_alibaba_batch(400, seed=1)
        mean_work = np.mean([j.total_work for j in jobs])
        target = ALIBABA_MEAN_DURATION_S * ALIBABA_DURATION_SCALE
        assert target * 0.6 <= mean_work <= target * 1.6  # heavy tail

    def test_power_law_tail(self):
        """Many short jobs, few long ones: median well below mean."""
        jobs = random_alibaba_batch(400, seed=2)
        works = np.array([j.total_work for j in jobs])
        assert np.median(works) < works.mean()

    def test_deterministic_per_seed(self):
        a, b = alibaba_job(seed=9), alibaba_job(seed=9)
        assert a.stage_ids() == b.stage_ids()
        assert a.total_work == pytest.approx(b.total_work)

    def test_valid_dags(self):
        for job in random_alibaba_batch(20, seed=3):
            assert len(job.roots()) >= 1
            assert job.topological_order()  # acyclic by construction

    def test_model_validation(self):
        with pytest.raises(ValueError):
            AlibabaWorkloadModel(pareto_shape=1.0)
        with pytest.raises(ValueError):
            AlibabaWorkloadModel(min_nodes=100, mean_nodes=50)

    def test_pareto_minimum_implies_mean(self):
        model = AlibabaWorkloadModel()
        a = model.pareto_shape
        assert model.pareto_minimum * a / (a - 1) == pytest.approx(
            model.mean_duration
        )


class TestArrivals:
    def test_poisson_monotone(self):
        times = poisson_arrival_times(50, mean_interarrival=30.0, seed=0)
        assert np.all(np.diff(times) > 0)

    def test_poisson_mean(self):
        times = poisson_arrival_times(4000, mean_interarrival=30.0, seed=0)
        gaps = np.diff(times)
        assert np.mean(gaps) == pytest.approx(30.0, rel=0.1)

    def test_start_offset(self):
        times = poisson_arrival_times(5, seed=0, start=100.0)
        assert times[0] > 100.0

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            poisson_arrival_times(0)
        with pytest.raises(ValueError):
            poisson_arrival_times(5, mean_interarrival=0.0)

    def test_submission_ids_sequential(self):
        dags = random_tpch_batch(5, seed=0)
        subs = submissions_from_dags(dags, seed=0)
        assert [s.job_id for s in subs] == [0, 1, 2, 3, 4]

    def test_submission_rejects_negative_arrival(self):
        dag = random_tpch_batch(1, seed=0)[0]
        with pytest.raises(ValueError):
            JobSubmission(arrival_time=-1.0, dag=dag, job_id=0)


class TestWorkloadSpec:
    def test_build_tpch(self):
        spec = WorkloadSpec(family="tpch", num_jobs=8)
        subs = build_workload(spec, seed=0)
        assert len(subs) == 8

    def test_build_alibaba(self):
        spec = WorkloadSpec(family="alibaba", num_jobs=4)
        subs = build_workload(spec, seed=0)
        assert len(subs) == 4
        assert all(len(s.dag) >= 6 for s in subs)

    def test_reproducible(self):
        spec = WorkloadSpec(family="tpch", num_jobs=6)
        a = build_workload(spec, seed=5)
        b = build_workload(spec, seed=5)
        assert [s.arrival_time for s in a] == [s.arrival_time for s in b]
        assert [s.dag.name for s in a] == [s.dag.name for s in b]

    def test_different_seeds_differ(self):
        spec = WorkloadSpec(family="tpch", num_jobs=6)
        a = build_workload(spec, seed=1)
        b = build_workload(spec, seed=2)
        assert [s.arrival_time for s in a] != [s.arrival_time for s in b]

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(family="nope")
        with pytest.raises(ValueError):
            WorkloadSpec(num_jobs=0)
        with pytest.raises(ValueError):
            WorkloadSpec(mean_interarrival=0.0)
