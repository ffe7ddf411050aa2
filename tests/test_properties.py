"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.threshold import cap_thresholds, psi, solve_alpha
from repro.dag.graph import JobDAG, Stage
from repro.dag.metrics import critical_path_length, remaining_work
from repro.schedulers.decima import DecimaScheduler
from repro.schedulers.fifo import FIFOScheduler, KubernetesDefaultScheduler
from repro.core.pcaps import PCAPSScheduler
from repro.workloads.arrivals import JobSubmission

from conftest import (
    assert_valid_schedule,
    make_trace,
    run_sim,
    schedule_fingerprint,
)

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
bounds = st.tuples(
    st.floats(min_value=1.0, max_value=500.0),
    st.floats(min_value=1.0, max_value=500.0),
).map(lambda pair: (min(pair), max(pair)))

unit = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def random_dag(draw, max_stages=8):
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
                num_tasks=draw(st.integers(min_value=1, max_value=4)),
                task_duration=draw(
                    st.floats(min_value=0.5, max_value=50.0)
                ),
                parents=parents,
            )
        )
    return JobDAG(stages)


@st.composite
def carbon_values(draw):
    n = draw(st.integers(min_value=3, max_value=40))
    return draw(
        st.lists(
            st.floats(min_value=0.0, max_value=900.0),
            min_size=n,
            max_size=n,
        )
    )


# ----------------------------------------------------------------------
# Threshold function properties
# ----------------------------------------------------------------------
class TestPsiProperties:
    @given(r=unit, gamma=unit, lu=bounds)
    def test_psi_within_bounds(self, r, gamma, lu):
        low, high = lu
        assert low - 1e-6 <= psi(r, gamma, low, high) <= high + 1e-6

    @given(gamma=unit, lu=bounds)
    def test_psi_importance_one_always_schedules(self, gamma, lu):
        low, high = lu
        assert psi(1.0, gamma, low, high) == pytest.approx(high)

    @given(
        r1=unit, r2=unit, gamma=st.floats(min_value=0.01, max_value=1.0),
        lu=bounds,
    )
    def test_psi_monotone_in_r(self, r1, r2, gamma, lu):
        low, high = lu
        a, b = sorted((r1, r2))
        assert psi(a, gamma, low, high) <= psi(b, gamma, low, high) + 1e-9

    @given(r=unit, lu=bounds)
    def test_gamma_zero_recovers_carbon_agnostic(self, r, lu):
        low, high = lu
        assert psi(r, 0.0, low, high) == high


class TestCapThresholdProperties:
    @given(
        total=st.integers(min_value=1, max_value=60),
        data=st.data(),
        lu=bounds,
    )
    def test_quota_monotone_and_bounded(self, total, data, lu):
        low, high = lu
        min_quota = data.draw(st.integers(min_value=1, max_value=total))
        thresholds = cap_thresholds(total, min_quota, low, high)
        previous = None
        for c in np.linspace(low, high, 12):
            q = thresholds.quota(float(c))
            assert min_quota <= q <= total
            if previous is not None:
                assert q <= previous
            previous = q

    @given(
        k=st.integers(min_value=1, max_value=80),
        lu=bounds,
    )
    # A one-ulp spread: the root's α - 1 is below float64 resolution.
    @example(k=1, lu=(1.0, 1.0000000000000002))
    def test_alpha_root_is_valid(self, k, lu):
        low, high = lu
        alpha = solve_alpha(k, low, high)
        if math.isinf(alpha):
            assert high - low <= 1e-11 * high
        else:
            assert alpha > 1.0
            lhs = (1.0 + 1.0 / (k * alpha)) ** k
            rhs = ((high - low) / high) / (1.0 - 1.0 / alpha)
            assert lhs == pytest.approx(rhs, rel=1e-4)


# ----------------------------------------------------------------------
# DAG properties
# ----------------------------------------------------------------------
class TestDagProperties:
    @given(dag=random_dag())
    def test_topological_order_is_valid(self, dag):
        position = {sid: i for i, sid in enumerate(dag.topological_order())}
        for sid in dag.stage_ids():
            for parent in dag.stage(sid).parents:
                assert position[parent] < position[sid]

    @given(dag=random_dag())
    def test_critical_path_bounded_by_total_work(self, dag):
        cp = critical_path_length(dag)
        assert 0 < cp <= dag.total_work + 1e-9

    @given(dag=random_dag())
    def test_remaining_work_decreases_with_completion(self, dag):
        done: set[int] = set()
        last = remaining_work(dag, done)
        for sid in dag.topological_order():
            done.add(sid)
            now = remaining_work(dag, done)
            assert now <= last + 1e-9
            last = now
        assert last == pytest.approx(0.0)

    @given(dag=random_dag())
    def test_frontier_never_contains_blocked_stage(self, dag):
        done: set[int] = set()
        for sid in dag.topological_order():
            frontier = dag.ready_after(done)
            for ready in frontier:
                assert all(p in done for p in dag.stage(ready).parents)
            done.add(sid)


# ----------------------------------------------------------------------
# Carbon trace properties
# ----------------------------------------------------------------------
class TestTraceProperties:
    @given(values=carbon_values())
    def test_integral_additive(self, values):
        trace = make_trace(values, step_seconds=10.0)
        total = trace.integrate(0.0, 25.0)
        split = trace.integrate(0.0, 13.0) + trace.integrate(13.0, 25.0)
        assert total == pytest.approx(split, rel=1e-9, abs=1e-6)

    @given(values=carbon_values(), t=st.floats(min_value=0, max_value=1e4))
    def test_intensity_is_some_trace_value(self, values, t):
        trace = make_trace(values, step_seconds=10.0)
        assert trace.intensity_at(t) in values

    @given(values=carbon_values())
    def test_bounds_contain_current(self, values):
        trace = make_trace(values, step_seconds=10.0)
        low, high = trace.bounds_over(0.0, trace.duration_seconds)
        assert low <= trace.intensity_at(0.0) <= high


# ----------------------------------------------------------------------
# Engine properties: any scheduler, any DAG -> legal complete schedule
# ----------------------------------------------------------------------
SCHEDULER_FACTORIES = [
    lambda: FIFOScheduler(),
    lambda: KubernetesDefaultScheduler(),
    lambda: DecimaScheduler(seed=0),
    lambda: PCAPSScheduler(DecimaScheduler(seed=0), gamma=0.7),
]


class TestEngineProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        dags=st.lists(random_dag(max_stages=5), min_size=1, max_size=4),
        scheduler_index=st.integers(min_value=0, max_value=3),
        executors=st.integers(min_value=1, max_value=6),
        values=carbon_values(),
    )
    def test_schedule_is_always_legal_and_complete(
        self, dags, scheduler_index, executors, values
    ):
        trace = make_trace(values, step_seconds=30.0)
        subs = [
            JobSubmission(arrival_time=i * 7.0, dag=dag, job_id=i)
            for i, dag in enumerate(dags)
        ]
        scheduler = SCHEDULER_FACTORIES[scheduler_index]()
        result = run_sim(scheduler, subs, trace, num_executors=executors)
        assert_valid_schedule(result, subs)
        # Work conservation: busy task time equals the batch's total work.
        assert result.trace.total_task_time() == pytest.approx(
            sum(s.dag.total_work for s in subs)
        )

    @settings(max_examples=20, deadline=None)
    @given(
        dags=st.lists(random_dag(max_stages=5), min_size=1, max_size=4),
        scheduler_index=st.integers(min_value=0, max_value=3),
        values=carbon_values(),
        cuts=st.lists(unit, min_size=4, max_size=4),
    )
    def test_interleaved_stepper_matches_run_fingerprint(
        self, dags, scheduler_index, values, cuts
    ):
        """submit/advance_until at arbitrary cut points replays run().

        The federation submits jobs mid-flight (and the disruption layer
        interleaves capacity events); this pins that *any* legal
        interleaving — each job submitted at a random instant before its
        arrival, with the engine advanced between submissions — produces
        the bit-identical schedule to submitting everything up front.
        """
        from repro.carbon.api import CarbonIntensityAPI
        from repro.simulator.engine import ClusterConfig, Simulation

        trace = make_trace(values, step_seconds=30.0)
        subs = [
            JobSubmission(arrival_time=i * 9.0, dag=dag, job_id=i)
            for i, dag in enumerate(dags)
        ]

        def build():
            return Simulation(
                config=ClusterConfig(num_executors=3),
                scheduler=SCHEDULER_FACTORIES[scheduler_index](),
                carbon_api=CarbonIntensityAPI(trace),
            )

        via_run = build().run(subs)

        stepper = build().stepper()
        for sub, cut in zip(subs, cuts):
            # Advance to a random instant at or before the arrival, then
            # submit (advance_until processes strictly-before events, so
            # cut == 1.0 is still a legal submission time).
            stepper.advance_until(cut * sub.arrival_time)
            stepper.submit(sub)
        stepper.run_to_completion()
        assert schedule_fingerprint(stepper.result()) == schedule_fingerprint(
            via_run
        )

    @settings(max_examples=15, deadline=None)
    @given(
        dags=st.lists(random_dag(max_stages=4), min_size=1, max_size=3),
        values=carbon_values(),
        gamma=unit,
    )
    def test_pcaps_never_slower_than_serial(self, dags, values, gamma):
        """PCAPS always guarantees progress: ECT is bounded by arrival span
        plus serial work plus bounded deferral stalls."""
        trace = make_trace(values, step_seconds=30.0)
        subs = [
            JobSubmission(arrival_time=i * 5.0, dag=dag, job_id=i)
            for i, dag in enumerate(dags)
        ]
        scheduler = PCAPSScheduler(DecimaScheduler(seed=1), gamma=gamma)
        result = run_sim(scheduler, subs, trace, num_executors=3)
        serial = sum(s.dag.total_work for s in subs)
        last_arrival = max(s.arrival_time for s in subs)
        # Every deferral stalls at most one carbon step (30 s) before another
        # scheduling event fires; the bound below is deliberately loose.
        stall_budget = 30.0 * (result.trace.deferrals + len(trace))
        assert result.ect <= last_arrival + serial + stall_budget + 1e-6
