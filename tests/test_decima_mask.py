"""Decima's share cap, scaled by the provisioner, as a draw mask.

Decima limits a stage to its ``ceil(K / active jobs)`` share, and CAP
scales every limit to ``ceil(P · r(t)/K)`` (Section 5.1). Decima's
``select`` draws only among the stages below that scaled limit, so
every choice can grow (the engine raises on one that cannot). These
tests pin the work counter that makes exact (at most one select per
task on a TPC-H batch), the "nothing growable" pass
end, the draw's weights on random frontiers, and the columnar scale the
mask reads against the provisioner's scalar rule.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.carbon.api import CarbonIntensityAPI, CarbonReading
from repro.core.cap import CAPProvisioner
from repro.dag.graph import JobDAG, Stage
from repro.experiments.runner import ExperimentConfig, simulation_for, workload_for
from repro.obs.observer import collecting
from repro.schedulers.decima import DecimaScheduler
from repro.schedulers.greenhadoop import GreenHadoopProvisioner
from repro.simulator import interfaces
from repro.simulator.engine import ClusterConfig, Simulation
from repro.simulator.interfaces import (
    NOTHING_GROWABLE,
    StageChoice,
    StaticProvisioner,
)
from repro.simulator.state import ClusterView, JobRuntime
from repro.workloads.arrivals import JobSubmission
from repro.workloads.batch import WorkloadSpec

from conftest import make_trace


def reading() -> CarbonReading:
    return CarbonReading(
        time=0.0, intensity=100.0, lower_bound=50.0, upper_bound=200.0
    )


class TestWorkCounters:
    @pytest.mark.parametrize("mode", ["standalone", "kubernetes"])
    @pytest.mark.parametrize("scheduler", ["decima", "cap-decima"])
    def test_tpch_batch_never_blocks(self, scheduler, mode):
        """50 TPC-H jobs, 50 executors, DE: every choice grows (the
        engine raises on one that cannot), and every select but a pass's
        last grows a stage."""
        config = ExperimentConfig(
            scheduler=scheduler, grid="DE", num_executors=50, mode=mode,
            workload=WorkloadSpec(family="tpch", num_jobs=50),
        )
        sim = simulation_for(config)
        with collecting("decima-mask") as observer:
            result = sim.run(workload_for(config))
        registry = observer.registry
        selects = registry.histogram("engine.select_latency_s").count
        assert 0 < selects <= len(result.trace.tasks)


class RecordingDecima(DecimaScheduler):
    """Decima logging ``(time, choice)`` for every select."""

    def __init__(self) -> None:
        super().__init__(seed=0)
        self.selects: list[tuple[float, object]] = []

    def select(self, view):
        choice = super().select(view)
        self.selects.append((view.time, choice))
        return choice


class TestNothingGrowable:
    def capped_view(self) -> ClusterView:
        """One free executor; the only assignable stage already runs its
        ``ceil(4 / 2) = 2`` share."""
        wide = JobRuntime(0, JobDAG([Stage(0, 8, 10.0)]), arrival_time=0.0)
        wide.stages[0].launch(2)
        busy = JobRuntime(1, JobDAG([Stage(0, 1, 10.0)]), arrival_time=0.0)
        busy.stages[0].launch(1)
        jobs = {0: wide, 1: busy}
        return ClusterView(
            time=0.0, total_executors=4, busy_executors=3, quota=4,
            jobs=jobs, carbon=reading(), active=jobs,
        )

    def test_capped_view_ends_without_a_draw(self):
        view = self.capped_view()
        policy = DecimaScheduler(seed=0)
        assert view.has_assignable()
        rng_state = policy._rng.bit_generator.state
        assert policy.select(view) is NOTHING_GROWABLE
        assert policy._rng.bit_generator.state == rng_state

    def test_capped_pass_ends_with_no_deferral_and_no_block(self):
        """A job holding its share of 2 while its neighbour's short stage
        frees an executor: the pass at that finish makes one select, which
        ends it, neither deferred nor blocked, with the executor idle."""
        wide = JobDAG([Stage(0, 8, 100.0)])
        two_roots = JobDAG([Stage(0, 1, 10.0), Stage(1, 1, 50.0)])
        policy = RecordingDecima()
        sim = Simulation(
            config=ClusterConfig(num_executors=4, executor_move_delay=0.0),
            scheduler=policy,
            carbon_api=CarbonIntensityAPI(make_trace([100.0] * 50)),
        )
        stepper = sim.stepper()
        stepper.submit(JobSubmission(0.0, wide, 0))
        stepper.submit(JobSubmission(0.0, two_roots, 1))
        stepper.advance_through(10.0)
        at_finish = [choice for time, choice in policy.selects if time == 10.0]
        assert at_finish == [NOTHING_GROWABLE]
        assert len(stepper.trace.tasks) == 4  # 2 + 1 + 1 at t=0
        assert stepper.busy_executors == 3
        assert stepper.trace.deferrals == 0


# -- the draw's weights on random frontiers ------------------------------


@st.composite
def frontier_views(draw):
    """Up to five one- or two-stage jobs with random launches and
    finishes, on up to twelve executors, with or without CAP's scale."""
    total = draw(st.integers(min_value=1, max_value=12))
    jobs = {}
    busy = 0
    for job_id in range(draw(st.integers(min_value=1, max_value=5))):
        stages = [Stage(0, draw(st.integers(1, 9)), draw(st.floats(0.5, 50.0)))]
        if draw(st.booleans()):
            stages.append(
                Stage(1, draw(st.integers(1, 9)), draw(st.floats(0.5, 50.0)))
            )
        job = JobRuntime(job_id, JobDAG(stages), arrival_time=float(job_id))
        for runtime in job.stages.values():
            launched = draw(st.integers(0, runtime.stage.num_tasks))
            if launched:
                runtime.launch(launched)
                for _ in range(draw(st.integers(0, launched - 1))):
                    job.record_task_finish(runtime.stage.stage_id, now=1.0)
            busy += runtime.running
        jobs[job_id] = job
    busy = min(busy, total)
    cap = None
    if draw(st.booleans()):
        cap = CAPProvisioner(
            total_executors=total,
            min_quota=draw(st.integers(min_value=1, max_value=total)),
        )
        cap._last_quota = draw(st.integers(cap.min_quota, total))
    view = ClusterView(
        time=0.0, total_executors=total, busy_executors=busy,
        quota=total, jobs=jobs, carbon=reading(), active=jobs,
        provisioner=cap,
    )
    return view, cap


@settings(max_examples=150, deadline=None)
@given(frontier_views(), st.integers(min_value=0, max_value=2**16))
def test_draw_weights_are_the_softmax_restricted_to_growable_rows(case, seed):
    """The draw's weights are ``p[G] / Σ p[G]``: ``p`` the softmax over the
    rows with free slots, ``G`` the rows below their scaled share. That is
    the distribution the retired reject-and-redraw loop converged to when
    blocking a row left the SRPT denominator unchanged."""
    view, cap = case
    policy = DecimaScheduler(seed=seed)
    frontier = view.frontier_arrays()
    free = frontier.compress(frontier.slots > 0)
    share = math.ceil(view.total_executors / max(view.queued_job_count(), 1))
    limits = np.maximum(np.minimum(free.num_tasks, share), 1)
    scaled = limits if cap is None else cap.scale_parallelism_column(limits, view)
    growable = np.flatnonzero(free.running < np.maximum(scaled, 1))
    drawn = []
    real_sample_index = interfaces._sample_index

    def spy(rng, weights):
        drawn.append(weights.copy())
        return real_sample_index(rng, weights)

    interfaces._sample_index = spy
    try:
        choice = policy.select(view)
    finally:
        interfaces._sample_index = real_sample_index
    if len(free) == 0:
        assert choice is None
        return
    if growable.size == 0:
        assert choice is NOTHING_GROWABLE and not drawn
        return
    reference = DecimaScheduler(seed=0)
    probs = reference._softmax(reference.scores_from_arrays(view, free))
    expected = probs[growable] / probs[growable].sum()
    (weights,) = drawn
    assert weights.tobytes() == expected.tobytes()
    assert isinstance(choice, StageChoice)
    rows = {
        (int(free.job_ids[i]), int(free.stage_ids[i])): i for i in growable
    }
    row = rows[(choice.job_id, choice.stage_id)]
    assert choice.parallelism_limit == limits[row]
    assert choice.ends_pass == (growable.size == 1)


# -- the columnar scale the mask reads ------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    total=st.integers(min_value=1, max_value=200),
    data=st.data(),
)
def test_cap_column_equals_the_scalar_rule(total, data):
    """CAP's ``scale_parallelism_column`` is ``scale_parallelism`` element
    by element, at every quota it can set."""
    cap = CAPProvisioner(
        total_executors=total,
        min_quota=data.draw(st.integers(1, total)),
    )
    cap._last_quota = data.draw(st.integers(cap.min_quota, total))
    limits = data.draw(
        st.lists(st.integers(1, 10_000), min_size=1, max_size=40)
    )
    column = cap.scale_parallelism_column(np.array(limits, dtype=float), None)
    assert column.tolist() == [
        float(cap.scale_parallelism(limit, None)) for limit in limits
    ]


@pytest.mark.parametrize(
    "provisioner",
    [
        StaticProvisioner(3),
        GreenHadoopProvisioner(make_trace([100.0, 300.0] * 5)),
    ],
    ids=["static", "greenhadoop"],
)
def test_default_column_is_the_identity_scalar_rule(provisioner):
    """Provisioners that keep the default rule scale neither form."""
    limits = np.array([1.0, 2.0, 7.0, 40.0])
    assert provisioner.scale_parallelism_column(limits, None).tolist() == [
        float(provisioner.scale_parallelism(int(x), None)) for x in limits
    ]
