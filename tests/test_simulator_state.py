"""Unit tests for runtime state (StageRuntime / JobRuntime / ClusterView)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.carbon.api import CarbonReading
from repro.core.cap import CAPProvisioner
from repro.dag.graph import JobDAG, Stage, diamond_dag
from repro.dag.metrics import bottleneck_scores
from repro.simulator.state import ClusterView, JobRuntime, StageRuntime


def reading(intensity=100.0, low=50.0, high=200.0, time=0.0):
    return CarbonReading(
        time=time, intensity=intensity, lower_bound=low, upper_bound=high
    )


def make_view(jobs, busy=0, total=4, quota=None, per_job_cap=None, **kwargs):
    return ClusterView(
        time=0.0,
        total_executors=total,
        busy_executors=busy,
        quota=quota if quota is not None else total,
        jobs={j.job_id: j for j in jobs},
        carbon=reading(),
        per_job_cap=per_job_cap,
        **kwargs,
    )


def cap_at(total, quota):
    """CAP on ``total`` executors whose last quota was ``quota``: it
    scales a limit ``P`` to ``ceil(P * quota / total)``."""
    cap = CAPProvisioner(total_executors=total, min_quota=1)
    cap._last_quota = quota
    return cap


class TestStageRuntime:
    def test_launch_and_finish(self):
        runtime = StageRuntime(Stage(0, 3, 1.0))
        runtime.launch(2)
        assert runtime.running == 2
        assert runtime.unlaunched == 1
        runtime.finish_one()
        assert runtime.finished == 1
        assert not runtime.complete

    def test_complete(self):
        runtime = StageRuntime(Stage(0, 1, 1.0))
        runtime.launch(1)
        runtime.finish_one()
        assert runtime.complete

    def test_overlaunch_rejected(self):
        runtime = StageRuntime(Stage(0, 2, 1.0))
        with pytest.raises(ValueError):
            runtime.launch(3)

    def test_finish_without_running_rejected(self):
        runtime = StageRuntime(Stage(0, 1, 1.0))
        with pytest.raises(RuntimeError):
            runtime.finish_one()


class TestJobRuntime:
    def test_initial_frontier_is_roots(self):
        job = JobRuntime(0, diamond_dag(), arrival_time=0.0)
        assert job.ready_stage_ids() == (0,)

    def test_saturated_stage_leaves_assignable_frontier(self):
        job = JobRuntime(0, diamond_dag(), arrival_time=0.0)
        job.stages[0].launch(1)  # diamond stages have 1 task
        assert job.ready_stage_ids() == ()
        assert job.ready_stage_ids(include_running=True) == (0,)

    def test_completion_flows_through_dag(self):
        job = JobRuntime(0, diamond_dag(), arrival_time=0.0)
        job.stages[0].launch(1)
        assert not job.record_task_finish(0, now=1.0)
        assert set(job.ready_stage_ids()) == {1, 2}
        for sid in (1, 2):
            job.stages[sid].launch(1)
            job.record_task_finish(sid, now=2.0)
        job.stages[3].launch(1)
        assert job.record_task_finish(3, now=3.0)
        assert job.done
        assert job.finish_time == 3.0

    def test_remaining_work_counts_unfinished(self):
        dag = JobDAG([Stage(0, 2, 5.0)])
        job = JobRuntime(0, dag, arrival_time=0.0)
        assert job.remaining_work() == 10.0
        job.stages[0].launch(2)
        assert job.remaining_work() == 10.0  # in flight still counts
        job.record_task_finish(0, now=5.0)
        assert job.remaining_work() == 5.0

    def test_executors_in_use(self):
        dag = JobDAG([Stage(0, 3, 1.0)])
        job = JobRuntime(0, dag, arrival_time=0.0)
        job.stages[0].launch(2)
        assert job.executors_in_use == 2


class TestClusterView:
    def test_ready_stages_slots_bounded_by_free(self):
        job = JobRuntime(0, JobDAG([Stage(0, 10, 1.0)]), arrival_time=0.0)
        view = make_view([job], busy=1, total=4)
        (entry,) = view.frontier_arrays().entries()
        assert entry.slots == 3

    def test_quota_restricts_slots(self):
        job = JobRuntime(0, JobDAG([Stage(0, 10, 1.0)]), arrival_time=0.0)
        view = make_view([job], busy=1, total=4, quota=2)
        (entry,) = view.frontier_arrays().entries()
        assert entry.slots == 1

    def test_per_job_cap_restricts_slots(self):
        dag = JobDAG([Stage(0, 10, 1.0)])
        job = JobRuntime(0, dag, arrival_time=0.0)
        job.stages[0].launch(2)
        view = make_view([job], busy=2, total=10, per_job_cap=3)
        (entry,) = view.frontier_arrays().entries()
        assert entry.slots == 1

    def test_finished_jobs_excluded(self):
        job = JobRuntime(0, JobDAG([Stage(0, 1, 1.0)]), arrival_time=0.0)
        job.stages[0].launch(1)
        job.record_task_finish(0, now=1.0)
        view = make_view([job])
        assert view.frontier_arrays().entries() == []
        assert view.queued_job_count() == 0

    def test_active_jobs_in_arrival_order(self):
        j1 = JobRuntime(1, diamond_dag(), arrival_time=5.0)
        j2 = JobRuntime(2, diamond_dag(), arrival_time=1.0)
        view = make_view([j1, j2])
        assert [j.job_id for j in view.active_jobs()] == [2, 1]

    def test_include_saturated_adds_zero_slot_entries(self):
        dag = JobDAG([Stage(0, 1, 1.0)])
        job = JobRuntime(0, dag, arrival_time=0.0)
        job.stages[0].launch(1)
        view = make_view([job], busy=1)
        assert view.frontier_arrays().entries() == []
        full = view.frontier_arrays(include_saturated=True).entries()
        assert len(full) == 1 and full[0].slots == 0

    def test_reserved_free_extends_budget_for_owner_only(self):
        dag_a = JobDAG([Stage(0, 10, 1.0)])
        dag_b = JobDAG([Stage(0, 10, 1.0)])
        job_a = JobRuntime(0, dag_a, arrival_time=0.0)
        job_b = JobRuntime(1, dag_b, arrival_time=1.0)
        view = make_view(
            [job_a, job_b],
            busy=0,
            total=6,
            general_free=2,
            reserved_free={0: 4},
        )
        entries = {e.job_id: e for e in view.frontier_arrays().entries()}
        assert entries[0].slots == 6  # 2 general + 4 reserved
        assert entries[1].slots == 2  # general only

    def test_assignable_executors(self):
        job = JobRuntime(0, diamond_dag(), arrival_time=0.0)
        view = make_view([job], busy=3, total=4, quota=3)
        assert view.assignable_executors == 0

    def test_has_assignable_matches_ready_stages(self):
        job = JobRuntime(0, diamond_dag(num_tasks=2), arrival_time=0.0)
        view = make_view([job], busy=0, total=4)
        assert view.has_assignable() == any(view.frontier_arrays().slots > 0)
        job2 = JobRuntime(0, diamond_dag(num_tasks=2), arrival_time=0.0)
        job2.stages[0].launch(2)  # root saturated: nothing assignable
        view = make_view([job2], busy=2, total=4)
        assert not view.has_assignable()
        assert not any(view.frontier_arrays().slots > 0)

    def test_has_assignable_respects_scaled_limit_and_quota(self):
        job = JobRuntime(0, JobDAG([Stage(0, 5, 1.0)]), arrival_time=0.0)
        job.stages[0].launch(3)
        assert make_view([job], busy=3, total=8).has_assignable()
        # ceil(5 * 4/8) = 3 tasks already run: the engine would not grow it.
        view = make_view([job], busy=3, total=8, provisioner=cap_at(8, 4))
        assert view.scaled_limit(5) == 3
        assert not view.has_assignable()
        # The frontier still shows the stage; the scaled limit is applied
        # only by the walk and by the schedulers' masks.
        assert len(view.frontier_arrays().entries()) == 1
        view = make_view([job], busy=8, total=8)
        assert not view.has_assignable()

    def test_scaled_limits_are_the_scalar_rule_and_at_least_one(self):
        view = make_view([], total=8, provisioner=cap_at(8, 1))
        limits = [1, 2, 7, 9, 40]
        assert view.scaled_limits(np.array(limits, dtype=float)).tolist() == [
            float(view.scaled_limit(limit)) for limit in limits
        ]
        assert [view.scaled_limit(limit) for limit in limits] == [1, 1, 1, 2, 5]
        assert make_view([]).scaled_limit(0) == 1

    def test_engine_active_mapping_drives_iteration_order(self):
        j1 = JobRuntime(1, diamond_dag(), arrival_time=5.0)
        j2 = JobRuntime(2, diamond_dag(), arrival_time=1.0)
        view = make_view([j1, j2], active={2: j2, 1: j1})
        assert [j.job_id for j in view.active_jobs()] == [2, 1]
        assert view.queued_job_count() == 2


def two_ready_job(job_id, arrival_time):
    """A job whose ready stages are 1 then 0, in topological order.

    Roots 1 and 3, stage 0 a child of 3; with 3 complete, stage 1 precedes
    stage 0 topologically although its id is larger.
    """
    dag = JobDAG(
        [Stage(1, 4, 1.0), Stage(3, 1, 1.0), Stage(0, 4, 1.0, parents=(3,))]
    )
    job = JobRuntime(job_id, dag, arrival_time=arrival_time)
    job.stages[3].launch(1)
    job.record_task_finish(3, now=0.0)
    assert job.ready_stage_ids() == (1, 0)
    return job


def walk(view):
    return [(job.job_id, sid) for job, sid in view.assignable_jobs()]


class TestAssignableJobs:
    """``assignable_jobs``: each job that could take an executor, with its
    first assignable stage — the walk the greedy baselines choose from."""

    def test_arrival_order_then_first_stage_in_topological_order(self):
        late = two_ready_job(7, arrival_time=5.0)
        early = two_ready_job(3, arrival_time=1.0)
        view = make_view([late, early], total=8)
        assert walk(view) == [(3, 1), (7, 1)]
        assert view.has_assignable()

    def test_stage_at_scaled_limit_falls_through_to_next_stage(self):
        job = two_ready_job(0, arrival_time=0.0)
        job.stages[1].launch(2)  # ceil(4 * 4/8) = 2: at its scaled limit
        view = make_view([job], busy=2, total=8, provisioner=cap_at(8, 4))
        assert walk(view) == [(0, 0)]
        assert view.first_assignable()[1] == 0

    def test_passed_pair_falls_through_to_next_stage(self):
        late = two_ready_job(1, arrival_time=1.0)
        early = two_ready_job(0, arrival_time=0.0)
        view = make_view([late, early], total=8)
        passed = {(0, 1), (1, 1), (1, 0)}
        assert [
            (job.job_id, sid) for job, sid in view.assignable_jobs(passed)
        ] == [(0, 0)]
        assert walk(view) == [(0, 1), (1, 1)]

    def test_job_at_per_job_cap_is_skipped(self):
        capped = two_ready_job(0, arrival_time=0.0)
        capped.stages[1].launch(2)
        other = two_ready_job(1, arrival_time=1.0)
        view = make_view([capped, other], busy=2, total=8, per_job_cap=2)
        assert walk(view) == [(1, 1)]

    def test_only_reserved_holder_appears_without_general_free(self):
        other = two_ready_job(0, arrival_time=0.0)
        holder = two_ready_job(1, arrival_time=1.0)
        view = make_view(
            [other, holder], total=8, general_free=0, reserved_free={1: 2}
        )
        assert walk(view) == [(1, 1)]

    def test_no_quota_room_yields_nothing(self):
        job = two_ready_job(0, arrival_time=0.0)
        view = make_view([job], busy=2, total=8, quota=2)
        assert walk(view) == []
        assert not view.has_assignable()


# ----------------------------------------------------------------------
# Property: the incrementally-maintained frontier and memoized aggregates
# must equal a from-scratch recomputation at every step of any run.
# ----------------------------------------------------------------------
@st.composite
def small_dag(draw, max_stages=7):
    """A random valid DAG: each stage depends on a subset of earlier ones."""
    n = draw(st.integers(min_value=1, max_value=max_stages))
    stages = []
    for sid in range(n):
        parents = ()
        if sid > 0:
            mask = draw(st.lists(st.booleans(), min_size=sid, max_size=sid))
            parents = tuple(i for i, used in enumerate(mask) if used)
        stages.append(
            Stage(
                stage_id=sid,
                num_tasks=draw(st.integers(min_value=1, max_value=3)),
                task_duration=draw(st.floats(min_value=0.5, max_value=20.0)),
                parents=parents,
            )
        )
    return JobDAG(stages)


def reference_ready_stage_ids(job, include_running):
    """The pre-refactor frontier derivation: re-walk the topological order."""
    done = job.completed_stages
    out = []
    for sid in job.dag.topological_order():
        if sid in done:
            continue
        if not all(p in done for p in job.dag.stage(sid).parents):
            continue
        if job.stages[sid].unlaunched > 0 or include_running:
            out.append(sid)
    return tuple(out)


def reference_remaining_work(job):
    return sum(
        (sr.stage.num_tasks - sr.finished) * sr.stage.task_duration
        for sr in job.stages.values()
    )


class TestIncrementalFrontierProperty:
    @given(small_dag(), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_matches_from_scratch_recomputation(self, dag, rng):
        job = JobRuntime(0, dag, arrival_time=0.0)
        now = 0.0

        def check():
            assert job.ready_stage_ids() == reference_ready_stage_ids(
                job, include_running=False
            )
            assert job.ready_stage_ids(
                include_running=True
            ) == reference_ready_stage_ids(job, include_running=True)
            assert job.executors_in_use == sum(
                sr.running for sr in job.stages.values()
            )
            assert job.remaining_work() == reference_remaining_work(job)
            assert job.bottleneck_scores() == bottleneck_scores(
                dag, job.completed_stages
            )

        check()
        while not job.done:
            now += 1.0
            launchable = [
                sid
                for sid in job.ready_stage_ids()
                if job.stages[sid].unlaunched > 0
            ]
            running = [
                sid for sid, sr in job.stages.items() if sr.running > 0
            ]
            # Randomly interleave launches and finishes; always legal.
            if launchable and (not running or rng.random() < 0.6):
                sid = rng.choice(launchable)
                job.stages[sid].launch(
                    rng.randint(1, job.stages[sid].unlaunched)
                )
            elif running:
                job.record_task_finish(rng.choice(running), now=now)
            check()
        assert job.ready_stage_ids(include_running=True) == ()
        assert job.remaining_work() == 0.0
