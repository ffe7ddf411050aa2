"""PCAPS's parallelism cap ``P'`` as a draw mask (Algorithm 1, Section 5.1).

PCAPS excludes stages already running ``P'`` tasks from its draw instead
of letting the engine block them and ask again. These tests pin the work
counters that change makes exact (no blocked retries, at most one select
per task on a TPC-H batch), the "nothing growable" pass end, and
Algorithm 1's properties on random DAG batches: minimum progress,
deferral accounting, and Definition 4.2 importance over the full ``A_t``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.carbon.api import CarbonIntensityAPI, CarbonReading
from repro.core.pcaps import PCAPSScheduler
from repro.dag.graph import JobDAG, Stage
from repro.experiments.runner import ExperimentConfig, simulation_for, workload_for
from repro.obs.observer import collecting
from repro.schedulers.decima import DecimaScheduler
from repro.simulator.engine import ClusterConfig, Simulation
from repro.simulator.interfaces import NOTHING_GROWABLE, StageChoice, StageScheduler
from repro.simulator.state import ClusterView, JobRuntime
from repro.workloads.arrivals import JobSubmission
from repro.workloads.batch import WorkloadSpec

from conftest import make_trace


def observed_run(sim: Simulation, submissions):
    """Run ``sim`` under a fresh observer; returns (result, registry)."""
    with collecting("pcaps-mask") as observer:
        result = sim.run(submissions)
    return result, observer.registry


class TestWorkCounters:
    @pytest.mark.parametrize("mode", ["decay", "paper"])
    def test_tpch_batch_never_blocks(self, mode):
        """50 TPC-H jobs, 50 executors, DE: the rejection loop made 3,139
        blocked retries and 2.00 selects per task here (decay)."""
        config = ExperimentConfig(
            scheduler="pcaps", grid="DE", num_executors=50,
            workload=WorkloadSpec(family="tpch", num_jobs=50),
        )
        base = simulation_for(config)
        sim = Simulation(
            config=base.config,
            scheduler=PCAPSScheduler(
                DecimaScheduler(seed=config.seed), gamma=0.5,
                parallelism_mode=mode,
            ),
            carbon_api=base.carbon_api,
        )
        result, registry = observed_run(sim, workload_for(config))
        selects = registry.histogram("engine.select_latency_s").count
        assert registry.value("engine.blocked_retries") == 0
        assert 0 < selects <= len(result.trace.tasks)


def capped_view() -> tuple[ClusterView, PCAPSScheduler]:
    """A view whose only assignable stage already runs ``P'`` tasks."""
    job = JobRuntime(0, JobDAG([Stage(0, 8, 10.0)]), arrival_time=0.0)
    job.stages[0].launch(2)
    view = ClusterView(
        time=0.0, total_executors=4, busy_executors=2, quota=4,
        jobs={0: job},
        carbon=CarbonReading(
            time=0.0, intensity=450.0, lower_bound=50.0, upper_bound=450.0
        ),
    )
    return view, PCAPSScheduler(DecimaScheduler(seed=0), gamma=0.5)


def column_limit(scheduler: PCAPSScheduler, view: ClusterView) -> int:
    """``P'`` of the view's first frontier row, from PCAPS's limit column."""
    frontier = view.frontier_arrays(include_saturated=True)
    return int(scheduler.parallelism_limits(view, frontier)[0])


class TestNothingGrowable:
    def test_capped_view_ends_without_a_draw(self):
        view, scheduler = capped_view()
        limit = column_limit(scheduler, view)
        assert view.has_assignable() and 2 >= limit
        rng_state = scheduler.policy._rng.bit_generator.state
        assert scheduler.select(view) is NOTHING_GROWABLE
        assert scheduler.deferral_count == 0
        assert scheduler.policy._rng.bit_generator.state == rng_state

    def test_capped_pass_ends_with_no_deferral_and_no_block(self):
        """One 8-task stage arriving at peak carbon on an idle cluster:
        minimum progress admits it at ``P'`` tasks, and the next select of
        the same pass finds it capped — the pass ends, neither deferred
        nor blocked."""
        block = [50.0] * 12 + [450.0] * 12
        trace = make_trace(block * 4)
        arrival = 12 * 60.0  # first high-carbon step
        sim = Simulation(
            config=ClusterConfig(num_executors=4, executor_move_delay=0.0),
            scheduler=PCAPSScheduler(DecimaScheduler(seed=0), gamma=0.5),
            carbon_api=CarbonIntensityAPI(trace),
        )
        with collecting("pcaps-capped-pass") as observer:
            stepper = sim.stepper()
            stepper.submit(
                JobSubmission(arrival, JobDAG([Stage(0, 8, 100.0)]), 0)
            )
            assert stepper.step() == arrival
        # The stage's P' at its arrival, as the pass's first select saw it.
        arrived = JobRuntime(0, JobDAG([Stage(0, 8, 100.0)]), arrival)
        limit = column_limit(
            sim.scheduler,
            ClusterView(
                time=arrival, total_executors=4, busy_executors=0, quota=4,
                jobs={0: arrived}, carbon=sim.carbon_api.reading(arrival),
            ),
        )
        assert limit < 4  # the cap binds below the idle executors
        assert len(stepper.trace.tasks) == limit
        assert stepper.trace.deferrals == 0
        assert observer.registry.value("engine.blocked_retries") == 0


# -- Algorithm 1 properties on random small DAG batches -----------------


@st.composite
def small_dag(draw):
    """A random valid DAG of up to five stages."""
    n = draw(st.integers(min_value=1, max_value=5))
    stages = []
    for sid in range(n):
        parents = tuple(
            p for p in range(sid) if draw(st.booleans())
        )
        stages.append(
            Stage(
                sid,
                draw(st.integers(min_value=1, max_value=6)),
                draw(st.floats(min_value=0.5, max_value=60.0)),
                parents=parents,
            )
        )
    return JobDAG(stages)


class RecordingDecima(DecimaScheduler):
    """Decima that logs every action-mask draw: the frontier distribution,
    the picked row, its importance, and whether it was a candidate."""

    def __init__(self, seed: int) -> None:
        super().__init__(seed=seed)
        self.draws: list[tuple[np.ndarray, int, float, bool]] = []

    def sample_row(self, view, candidates=None):
        drawn = super().sample_row(view, candidates)
        if drawn is not None:
            full = view.frontier_arrays(include_saturated=True)
            if candidates is None:
                candidates = np.flatnonzero(full.slots > 0)
            probs = self._softmax(self._checked_scores(view, full))
            row, importance = drawn
            self.draws.append((probs, row, importance, row in candidates))
        return drawn


class RecordingScheduler(StageScheduler):
    """Pass-through wrapper logging ``(time, busy executors, choice)`` for
    every select the engine makes."""

    def __init__(self, inner: StageScheduler) -> None:
        self.inner = inner
        self.name = inner.name
        self.selects: list[tuple[float, int, object]] = []

    def reset(self) -> None:
        self.inner.reset()
        self.selects.clear()

    def select(self, view):
        choice = self.inner.select(view)
        self.selects.append((view.time, view.busy_executors, choice))
        return choice


@settings(max_examples=40, deadline=None)
@given(
    dags=st.lists(small_dag(), min_size=1, max_size=4),
    gaps=st.lists(st.floats(min_value=0.0, max_value=90.0), min_size=4, max_size=4),
    executors=st.integers(min_value=1, max_value=8),
    values=st.lists(
        st.floats(min_value=0.0, max_value=900.0), min_size=3, max_size=30
    ),
    gamma=st.floats(min_value=0.0, max_value=1.0),
    mode=st.sampled_from(["decay", "paper", "off"]),
    scope=st.sampled_from(["event", "sample"]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_algorithm_1_properties(
    dags, gaps, executors, values, gamma, mode, scope, seed
):
    arrivals = np.cumsum(gaps[: len(dags)]).tolist()
    subs = [
        JobSubmission(arrival, dag, i)
        for i, (arrival, dag) in enumerate(zip(arrivals, dags))
    ]
    policy = RecordingDecima(seed=seed)
    pcaps = PCAPSScheduler(
        policy, gamma=gamma, parallelism_mode=mode, defer_scope=scope
    )
    wrapper = RecordingScheduler(pcaps)
    sim = Simulation(
        config=ClusterConfig(num_executors=executors),
        scheduler=wrapper,
        carbon_api=CarbonIntensityAPI(make_trace(values, step_seconds=30.0)),
    )
    result, registry = observed_run(sim, subs)

    # Minimum progress: a pass that starts on an idle cluster never opens
    # with a deferral (or a "nothing growable" end) — it schedules.
    opened: set[float] = set()
    for time, busy, choice in wrapper.selects:
        if time not in opened:
            opened.add(time)
            if busy == 0:
                assert isinstance(choice, StageChoice)
    # Deferral accounting: under per-event deferral every filter
    # rejection is exactly one engine deferral; "nothing growable" ends
    # are neither.
    if scope == "event":
        assert result.trace.deferrals == pcaps.deferral_count
    else:
        assert pcaps.deferral_count >= result.trace.deferrals
    assert result.trace.deferrals == sum(
        choice is None for _, _, choice in wrapper.selects
    )
    # Definition 4.2: importance is relative to the max over the whole
    # frontier, so it lies in [0, 1] and is exactly 1 at the argmax; the
    # pick itself always comes from the growable candidates.
    assert policy.draws
    for probs, row, importance, candidate in policy.draws:
        assert candidate
        assert 0.0 <= importance <= 1.0
        if probs[row] == probs.max():
            assert importance == 1.0
    # Without a provisioner, the mask leaves the engine nothing to block.
    assert registry.value("engine.blocked_retries") == 0
