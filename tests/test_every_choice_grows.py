"""Every choice can grow: the engine's contract with its schedulers.

A scheduler chooses only stages the engine can grow under the limit the
view reports (``ClusterView.scaled_limit``: the provisioner's scale of
the choice's parallelism limit, and at least 1). The greedy baselines
get that from ``assignable_jobs``, which skips stages at CAP's scaled
task count, and weighted-fair passes over a pick at its scaled
entitlement within ``select``. The engine has no block-and-retry path:
a choice that cannot grow is a scheduler bug, and the pass raises.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.carbon.api import CarbonIntensityAPI
from repro.core.cap import CAPProvisioner
from repro.dag.graph import JobDAG, Stage
from repro.schedulers.fifo import FIFOScheduler, KubernetesDefaultScheduler
from repro.schedulers.weighted_fair import WeightedFairScheduler
from repro.simulator.engine import ClusterConfig, Simulation
from repro.simulator.interfaces import (
    StageChoice,
    StageScheduler,
    StaticProvisioner,
)
from repro.workloads.arrivals import JobSubmission

from conftest import assert_valid_schedule, make_trace, single_job


class SameStage(StageScheduler):
    """Always job 0's stage 0, at ``limit``: blind to what can grow."""

    name = "same-stage"

    def __init__(self, limit: int | None = None) -> None:
        self.limit = limit

    def select(self, view):
        return StageChoice(job_id=0, stage_id=0, parallelism_limit=self.limit)


class OneTaskPerStage(StaticProvisioner):
    """A quota of 4 that scales every parallelism limit down to 1."""

    def __init__(self) -> None:
        super().__init__(4)

    def scale_parallelism(self, limit, view):
        return 1

    def scale_parallelism_column(self, limits, view):
        return np.ones_like(limits)


def simulation(scheduler, provisioner=None, executors=4) -> Simulation:
    return Simulation(
        config=ClusterConfig(num_executors=executors, executor_move_delay=0.0),
        scheduler=scheduler,
        provisioner=provisioner,
        carbon_api=CarbonIntensityAPI(make_trace([100.0] * 500)),
    )


class TestEngineRaises:
    def test_on_a_choice_at_its_own_limit(self):
        """The first grant fills the limit of 1; the pass's next select
        repeats the choice, which cannot grow."""
        sim = simulation(SameStage(limit=1))
        with pytest.raises(
            RuntimeError,
            match="scheduler 'same-stage' chose job 0 stage 0, which cannot grow",
        ):
            sim.run(single_job(JobDAG([Stage(0, 8, 10.0)])))

    def test_on_a_choice_above_the_provisioners_scaled_limit(self):
        """Stage 0 runs its scaled limit of 1 after the first grant;
        stage 1 keeps the pass going, and the blind scheduler picks
        stage 0 again."""
        sim = simulation(SameStage(), OneTaskPerStage())
        two_roots = JobDAG([Stage(0, 8, 10.0), Stage(1, 8, 10.0)])
        with pytest.raises(RuntimeError, match="stage 0, which cannot grow"):
            sim.run(single_job(two_roots))

    def test_not_on_the_greedy_walk_under_the_same_scale(self):
        """FIFO chooses from ``assignable_jobs``, which skips the stage
        once it runs its scaled limit: one task at a time, no raise."""
        dag = JobDAG([Stage(0, 3, 10.0)])
        subs = single_job(dag)
        result = simulation(FIFOScheduler(), OneTaskPerStage()).run(subs)
        assert_valid_schedule(result, subs)
        starts = sorted(task.start for task in result.trace.tasks)
        assert starts == [0.0, 10.0, 20.0]


# -- the greedy baselines under CAP --------------------------------------


class RecordingScheduler(StageScheduler):
    """Wraps a scheduler and logs ``(view, reply, launched)`` per select:
    ``launched`` is the chosen stage's launch count before its grant."""

    def __init__(self, inner: StageScheduler) -> None:
        self.inner = inner
        self.name = inner.name
        self.holds_executors = inner.holds_executors
        self.log: list[tuple[object, object, int | None]] = []

    def reset(self) -> None:
        self.inner.reset()
        self.log.clear()

    def select(self, view):
        reply = self.inner.select(view)
        launched = None
        if isinstance(reply, StageChoice):
            launched = view.job(reply.job_id).stages[reply.stage_id].launched
        self.log.append((view, reply, launched))
        return reply


@st.composite
def small_dag(draw):
    """A random valid DAG of up to four stages."""
    stages = []
    for sid in range(draw(st.integers(min_value=1, max_value=4))):
        stages.append(
            Stage(
                sid,
                draw(st.integers(min_value=1, max_value=6)),
                draw(st.floats(min_value=0.5, max_value=60.0)),
                parents=tuple(p for p in range(sid) if draw(st.booleans())),
            )
        )
    return JobDAG(stages)


GREEDY = {
    "cap-fifo": FIFOScheduler,
    "cap-k8s-default": KubernetesDefaultScheduler,
    "cap-weighted-fair": WeightedFairScheduler,
}


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(GREEDY)),
    dags=st.lists(small_dag(), min_size=1, max_size=5),
    gaps=st.lists(
        st.floats(min_value=0.0, max_value=90.0), min_size=5, max_size=5
    ),
    executors=st.integers(min_value=1, max_value=8),
    min_quota=st.integers(min_value=1, max_value=8),
    per_job_cap=st.sampled_from([None, 2]),
    values=st.lists(
        st.floats(min_value=0.0, max_value=900.0), min_size=3, max_size=30
    ),
)
def test_every_select_under_cap_is_a_grant_or_ends_the_pass(
    name, dags, gaps, executors, min_quota, per_job_cap, values
):
    """Under CAP, each choice of cap-fifo, cap-k8s-default and
    cap-weighted-fair is granted at once (its stage's next task starts
    in the same pass), and a select that chooses nothing is the pass's
    last."""
    arrivals = np.cumsum(gaps[: len(dags)]).tolist()
    subs = [
        JobSubmission(arrival, dag, i)
        for i, (arrival, dag) in enumerate(zip(arrivals, dags))
    ]
    recorder = RecordingScheduler(GREEDY[name]())
    sim = Simulation(
        config=ClusterConfig(
            num_executors=executors,
            per_job_executor_cap=per_job_cap,
            mode="kubernetes" if per_job_cap is not None else "standalone",
        ),
        scheduler=recorder,
        provisioner=CAPProvisioner(
            total_executors=executors, min_quota=min(min_quota, executors)
        ),
        carbon_api=CarbonIntensityAPI(make_trace(values, step_seconds=30.0)),
    )
    result = sim.run(subs)
    assert_valid_schedule(result, subs)
    # The engine builds one view per pass: a pass is a run of selects
    # sharing a view object.
    starts = {
        (task.job_id, task.stage_id, task.task_index): task.start
        for task in result.trace.tasks
    }
    log = recorder.log
    assert log
    for i, (view, reply, launched) in enumerate(log):
        if isinstance(reply, StageChoice):
            # The grant's first task is the stage's next index, committed
            # at this pass's time (nothing is preempted here).
            assert starts[reply.job_id, reply.stage_id, launched] == view.time
        else:
            assert i + 1 == len(log) or log[i + 1][0] is not view
