"""FrontierArrays: the columnar ready frontier and its frontier table.

Every check compares the program against references kept in this file,
which share none of its caches: :func:`reference_entries` walks the
frontier entry by entry, and :func:`reference_scores` scores Decima one
entry at a time.

- unit tests pin the columnar representation against the reference walk
  entry-for-entry, including blocked filtering and the ``entry()``
  round-trip;
- a hypothesis property test drives random submit / launch / finish /
  preempt / withdraw interleavings through views sharing one
  :class:`FrontierTable` (with the engine's touch-and-mark discipline)
  and asserts every served matrix stays bit-equal to a from-scratch
  rebuild, that an unchanged frontier is served as the same matrix
  object, and that ``assignable_jobs`` yields each job's first reference
  entry with free slots;
- an engine test checks every frontier a stepper serves, and a probe
  after every step, against a from-scratch build, through arrivals,
  grants, finishes, preemptions and a withdrawal;
- sampler tests check Decima's sampling entry points draw the exact
  schedule a reference sampler draws from the reference walk and scores.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.carbon.api import CarbonIntensityAPI, CarbonReading
from repro.core.pcaps import PCAPSScheduler
from repro.dag.graph import JobDAG, Stage, diamond_dag
from repro.schedulers.decima import DecimaScheduler
from repro.schedulers.fifo import FIFOScheduler, KubernetesDefaultScheduler
from repro.schedulers.weighted_fair import WeightedFairScheduler
from repro.simulator.engine import ClusterConfig, Simulation
from repro.simulator.interfaces import NOTHING_GROWABLE, StageChoice
from repro.simulator.state import (
    ClusterView,
    FrontierArrays,
    FrontierTable,
    JobRuntime,
    ReadyStage,
)
from repro.workloads.arrivals import JobSubmission

from conftest import make_trace


def reading():
    return CarbonReading(
        time=0.0, intensity=100.0, lower_bound=50.0, upper_bound=200.0
    )


def chain_dag():
    return JobDAG(
        [
            Stage(0, 2, 1.0),
            Stage(1, 3, 2.0, parents=(0,)),
            Stage(2, 1, 1.5, parents=(1,)),
        ]
    )


def fan_dag():
    return JobDAG(
        [
            Stage(0, 1, 1.0),
            Stage(1, 2, 1.0, parents=(0,)),
            Stage(2, 2, 2.0, parents=(0,)),
            Stage(3, 3, 0.5, parents=(0,)),
        ]
    )


DAG_BUILDERS = (diamond_dag, chain_dag, fan_dag)


def build_view(
    jobs,
    active,
    busy=0,
    total=6,
    quota=None,
    per_job_cap=None,
    blocked=frozenset(),
    frontier_table=None,
    general_free=None,
    reserved_free=None,
):
    return ClusterView(
        time=0.0,
        total_executors=total,
        busy_executors=busy,
        quota=quota if quota is not None else total,
        jobs=jobs,
        carbon=reading(),
        per_job_cap=per_job_cap,
        blocked=blocked,
        general_free=general_free,
        reserved_free=reserved_free,
        active=active,
        frontier_table=frontier_table,
    )


def reference_entries(view, include_saturated):
    """The frontier as :class:`ReadyStage` tuples, walked from scratch.

    Active jobs in arrival order, each job's ready stages in topological
    order, minus the pairs blocked this pass. ``slots`` is the free
    executors the stage could take: its unlaunched tasks, bounded by the
    quota room, the job's executor pool (shared plus its reserved) and the
    job's per-job-cap headroom. Without ``include_saturated`` only stages
    with unlaunched tasks appear; with it, stages whose tasks are all in
    flight appear too, with ``slots == 0``.
    """
    out = []
    quota_room = max(0, view.quota - view.busy_executors)
    for job in view.active_jobs():
        job_pool = view.general_free + view.reserved_free.get(job.job_id, 0)
        budget = min(quota_room, job_pool)
        headroom = (
            max(0, view.per_job_cap - job.executors_in_use)
            if view.per_job_cap is not None
            else budget
        )
        for sid in job.ready_stage_ids(include_running=include_saturated):
            if (job.job_id, sid) in view._blocked:
                continue
            runtime = job.stages[sid]
            unlaunched = runtime.stage.num_tasks - runtime.launched
            out.append(
                ReadyStage(
                    job.job_id,
                    sid,
                    runtime.stage,
                    unlaunched,
                    runtime.running,
                    max(0, min(unlaunched, budget, headroom)),
                )
            )
    return out


def reference_arrays(view, include_saturated):
    """From-scratch rebuild: reference walk first, then columnar
    conversion."""
    return FrontierArrays.from_entries(
        reference_entries(view, include_saturated), view._jobs
    )


def reference_scores(policy, view, ready):
    """Decima's score of each entry of ``ready``, one float at a time.

    ``srpt + bottleneck + locality`` per entry, with the operations in the
    order :meth:`DecimaScheduler.scores_from_arrays` applies them column
    by column, so the results must be bit-equal.
    """
    remaining = {r.job_id: view.job(r.job_id).remaining_work() for r in ready}
    denominator = max(max(remaining.values()), 1e-9)
    out = np.empty(len(ready))
    for i, r in enumerate(ready):
        job = view.job(r.job_id)
        srpt = policy.srpt_weight * (1.0 - remaining[r.job_id] / denominator)
        bottleneck = job.bottleneck_scores().get(r.stage_id, 0.0)
        locality = policy.locality_weight * (
            1.0 if job.executors_in_use > 0 else 0.0
        )
        out[i] = srpt + policy.bottleneck_weight * bottleneck + locality
    return out


def reference_select(policy, rng, view):
    """Decima's ``select`` from the reference walk, reference scores and
    ``Generator.choice``: the softmax over the entries with free slots,
    the draw over those running fewer tasks than their share
    ``max(1, min(num_tasks, ceil(K / active jobs)))``."""
    ready = [r for r in reference_entries(view, False) if r.slots > 0]
    if not ready:
        return None
    share = math.ceil(view.total_executors / max(view.queued_job_count(), 1))
    limits = [max(1, min(r.stage.num_tasks, share)) for r in ready]
    growable = [i for i, r in enumerate(ready) if r.running < limits[i]]
    if not growable:
        return NOTHING_GROWABLE
    probs = policy._softmax(reference_scores(policy, view, ready))
    weights = probs[growable] / probs[growable].sum()
    pick = growable[int(rng.choice(len(growable), p=weights))]
    chosen = ready[pick]
    return StageChoice(
        job_id=chosen.job_id,
        stage_id=chosen.stage_id,
        parallelism_limit=limits[pick],
        ends_pass=len(growable) == 1,
    )


def reference_sample_with_importance(policy, rng, view):
    """Decima's ``sample_with_importance`` from the same references: the
    distribution over the full frontier, the draw over rows with free
    slots, the importance relative to the frontier's most likely row."""
    full = reference_entries(view, True)
    candidates = [i for i, r in enumerate(full) if r.slots > 0]
    probs = policy._softmax(reference_scores(policy, view, full))
    weights = probs[candidates]
    total = weights.sum()
    if total <= 0:
        weights = np.full(len(candidates), 1.0 / len(candidates))
    else:
        weights = weights / total
    pick = candidates[int(rng.choice(len(candidates), p=weights))]
    peak = probs.max()
    return full[pick], float(probs[pick] / peak) if peak > 0 else 1.0


def assert_same_matrix(actual: FrontierArrays, expected: FrontierArrays):
    assert actual.data.shape == expected.data.shape
    # Bit-equality, not approximate equality: the contract is that cached
    # and rebuilt arrays hold the identical floats.
    assert actual.data.tobytes() == expected.data.tobytes()


class TestColumnarRepresentation:
    def test_matches_ready_stages_entry_for_entry(self):
        job_a = JobRuntime(0, diamond_dag(), arrival_time=0.0)
        job_b = JobRuntime(1, fan_dag(), arrival_time=1.0)
        job_b.stages[0].launch(1)
        jobs = {0: job_a, 1: job_b}
        view = build_view(jobs, active=jobs)
        for flag in (False, True):
            fa = view.frontier_arrays(flag)
            entries = reference_entries(view, flag)
            assert fa.entries() == entries
            assert len(fa) == len(entries)

    def test_entry_reconstructs_ready_stage(self):
        job = JobRuntime(3, chain_dag(), arrival_time=0.0)
        jobs = {3: job}
        view = build_view(jobs, active=jobs)
        fa = view.frontier_arrays()
        entry = fa.entry(0)
        assert entry.job_id == 3
        assert entry.stage_id == 0
        assert entry.stage is job.stages[0].stage
        assert entry == reference_entries(view, False)[0]

    def test_aggregate_columns_are_job_memoized_values(self):
        job = JobRuntime(0, fan_dag(), arrival_time=0.0)
        job.stages[0].launch(1)
        jobs = {0: job}
        view = build_view(jobs, active=jobs)
        fa = view.frontier_arrays(include_saturated=True)
        assert fa.remaining_work.tolist() == [job.remaining_work()] * len(fa)
        assert fa.executors_in_use.tolist() == [1.0] * len(fa)
        scores = job.bottleneck_scores()
        for i in range(len(fa)):
            sid = int(fa.stage_ids[i])
            assert fa.bottleneck[i] == scores.get(sid, 0.0)

    def test_empty_frontier(self):
        job = JobRuntime(0, JobDAG([Stage(0, 1, 1.0)]), arrival_time=0.0)
        job.stages[0].launch(1)
        jobs = {0: job}
        view = build_view(jobs, active=jobs, busy=1)
        fa = view.frontier_arrays()
        assert len(fa) == 0
        assert fa.data.shape == (0, FrontierArrays.NUM_COLS)

    def test_blocked_entries_are_filtered(self):
        job = JobRuntime(0, fan_dag(), arrival_time=0.0)
        job.stages[0].launch(1)
        job.record_task_finish(0, now=1.0)
        jobs = {0: job}
        blocked = frozenset({(0, 2)})
        view = build_view(jobs, active=jobs, blocked=blocked)
        for flag in (False, True):
            assert_same_matrix(
                view.frontier_arrays(flag), reference_arrays(view, flag)
            )
            assert 2.0 not in view.frontier_arrays(flag).stage_ids

    def test_block_method_extends_filter_incrementally(self):
        job = JobRuntime(0, fan_dag(), arrival_time=0.0)
        job.stages[0].launch(1)
        job.record_task_finish(0, now=1.0)
        jobs = {0: job}
        view = build_view(jobs, active=jobs, frontier_table=FrontierTable())
        assert sorted(view.frontier_arrays().stage_ids.tolist()) == [1, 2, 3]
        view.block(0, 2)
        assert sorted(view.frontier_arrays().stage_ids.tolist()) == [1, 3]
        assert_same_matrix(
            view.frontier_arrays(), reference_arrays(view, False)
        )
        view.block(0, 1)
        assert view.frontier_arrays().stage_ids.tolist() == [3.0]
        assert_same_matrix(
            view.frontier_arrays(), reference_arrays(view, False)
        )


class TestVectorizedPathEquivalence:
    """Decima's sampling entry points draw exactly like the reference
    sampler: same rows, same scores, same softmax, same RNG draws."""

    def _twin_views(self, per_job_cap=None, capped=False):
        """Two part-run jobs; with ``capped``, a third whose wide stage
        already runs more tasks than the ``ceil(6 / 3) = 2`` share."""
        def fresh():
            jobs = {
                0: JobRuntime(0, diamond_dag(), arrival_time=0.0),
                1: JobRuntime(1, fan_dag(), arrival_time=1.0),
            }
            jobs[1].stages[0].launch(1)
            if capped:
                jobs[2] = JobRuntime(
                    2, JobDAG([Stage(0, 8, 5.0)]), arrival_time=2.0
                )
                jobs[2].stages[0].launch(3)
            return build_view(jobs, active=jobs, per_job_cap=per_job_cap)

        return fresh

    @pytest.mark.parametrize("per_job_cap", [None, 2])
    def test_select_sequences_identical(self, per_job_cap):
        fresh = self._twin_views(per_job_cap)
        policy = DecimaScheduler(seed=11)
        rng = np.random.default_rng(11)
        for _ in range(25):
            assert policy.select(fresh()) == reference_select(
                policy, rng, fresh()
            )

    def test_select_sequences_identical_with_a_capped_stage(self):
        fresh = self._twin_views(capped=True)
        policy = DecimaScheduler(seed=11)
        rng = np.random.default_rng(11)
        choices = [policy.select(fresh()) for _ in range(25)]
        assert choices == [
            reference_select(policy, rng, fresh()) for _ in range(25)
        ]
        assert all(choice.job_id != 2 for choice in choices)

    @pytest.mark.parametrize("per_job_cap", [None, 2])
    def test_sample_with_importance_identical(self, per_job_cap):
        fresh = self._twin_views(per_job_cap)
        policy = DecimaScheduler(seed=5)
        rng = np.random.default_rng(5)
        for _ in range(25):
            pick, importance = policy.sample_with_importance(fresh())
            ref_pick, ref_importance = reference_sample_with_importance(
                policy, rng, fresh()
            )
            assert pick == ref_pick
            assert importance == ref_importance

    def test_scores_from_arrays_matches_scores(self):
        fresh = self._twin_views()
        view = fresh()
        policy = DecimaScheduler(seed=0)
        ready = reference_entries(view, True)
        fa = view.frontier_arrays(include_saturated=True)
        expected = reference_scores(policy, view, ready)
        assert policy.scores_from_arrays(view, fa).tobytes() == expected.tobytes()

    def test_reset_clears_caches(self):
        policy = DecimaScheduler(seed=0)
        fresh = self._twin_views()
        policy.sample_with_importance(fresh())
        assert policy._score_cache is not None
        policy.reset()
        assert policy._score_cache is None


class CountingDecima(DecimaScheduler):
    def __init__(self):
        super().__init__(seed=0)
        self.scorings = 0

    def scores_from_arrays(self, view, frontier):
        self.scorings += 1
        return super().scores_from_arrays(view, frontier)


class TestDecimaScoreCache:
    """Decima's ``_raw_scores`` cache returns exactly the floats a fresh
    ``scores_from_arrays`` would, computing only when it must."""

    def _frontier(self):
        chain = JobRuntime(0, chain_dag(), arrival_time=0.0)
        fan = JobRuntime(1, fan_dag(), arrival_time=1.0)
        fan.stages[0].launch(1)
        fan.record_task_finish(0, now=1.0)  # stages 1-3 ready
        jobs = {0: chain, 1: fan}
        view = build_view(jobs, active=jobs)
        return view, view.frontier_arrays()

    def assert_fresh(self, view, frontier, raw):
        fresh = DecimaScheduler(seed=0).scores_from_arrays(view, frontier)
        assert raw.tobytes() == fresh.tobytes()

    def test_same_matrix_is_scored_once(self):
        view, full = self._frontier()
        policy = CountingDecima()
        first = policy._raw_scores(view, full)
        second = policy._raw_scores(view, full)
        assert policy.scorings == 1
        self.assert_fresh(view, full, second)
        assert second is first


# -- the greedy baselines against tuple-list references ----------------


def reference_fifo(scheduler, view, ready):
    """FIFO over the reference entries with free slots: the first one."""
    r = ready[0]
    return StageChoice(r.job_id, r.stage_id, r.stage.num_tasks)


def reference_k8s(scheduler, view, ready):
    """The Kubernetes default over the reference entries with free slots."""
    best = min(
        {r.job_id for r in ready},
        key=lambda j: (view.job(j).executors_in_use, view.job(j).arrival_time),
    )
    r = next(r for r in ready if r.job_id == best)
    return StageChoice(best, r.stage_id, r.stage.num_tasks)


def reference_weighted_fair(scheduler, view, ready):
    """Weighted-fair over the reference entries with free slots."""
    jobs = {r.job_id for r in ready}
    weights = {
        j: max(view.job(j).remaining_work(), 1e-9) ** scheduler.weight_exponent
        for j in jobs
    }
    total_weight = sum(weights.values())
    usable = max(view.quota, 1)

    def deficit(j):
        return view.job(j).executors_in_use - usable * weights[j] / total_weight

    best = min(jobs, key=lambda j: (deficit(j), view.job(j).arrival_time))
    if deficit(best) >= 0:
        best = min(jobs, key=lambda j: view.job(j).executors_in_use)
    entitlement = max(1, round(usable * weights[best] / total_weight))
    r = next(r for r in ready if r.job_id == best)
    return StageChoice(best, r.stage_id, min(entitlement, r.stage.num_tasks))


def random_view(rng):
    """Up to twelve part-run jobs with scattered ids and tied arrival
    times, under random quota, pools, reservations, per-job cap and
    blocks. Four to seven tied jobs are the case where a set's iteration
    order depends on how it was built."""
    jobs = {}
    for job_id in rng.choice(4096, size=int(rng.integers(1, 13)), replace=False):
        dag = DAG_BUILDERS[int(rng.integers(len(DAG_BUILDERS)))]()
        job = JobRuntime(int(job_id), dag, arrival_time=float(rng.integers(2)))
        for _ in range(int(rng.integers(3))):
            ready = job.ready_stage_ids()
            if not ready:
                break
            sid = ready[int(rng.integers(len(ready)))]
            job.stages[sid].launch(1)
            if rng.integers(4) == 0:
                job.record_task_finish(sid, now=1.0)
        jobs[job.job_id] = job
    blocked = frozenset(
        (job_id, sid)
        for job_id, job in jobs.items()
        for sid in job.ready_stage_ids()
        if rng.integers(6) == 0
    )
    quota = int(rng.integers(1, 9))
    return build_view(
        jobs,
        active=None,
        busy=int(rng.integers(0, quota)),
        total=8,
        quota=quota,
        per_job_cap=[None, 2, 4][int(rng.integers(3))],
        blocked=blocked,
        general_free=int(rng.integers(0, 5)),
        reserved_free={
            job_id: int(rng.integers(1, 4))
            for job_id in jobs
            if rng.integers(4) == 0
        },
    )


class TestGreedyBaselines:
    """FIFO, the Kubernetes default and weighted-fair pick from
    ``assignable_jobs`` exactly what they would pick from the full list of
    reference entries with free slots — ties included, which the two
    spreading schedulers break by the iteration order of a job-id set."""

    @pytest.mark.parametrize(
        "scheduler, reference",
        [
            (FIFOScheduler(), reference_fifo),
            (KubernetesDefaultScheduler(), reference_k8s),
            (WeightedFairScheduler(), reference_weighted_fair),
        ],
        ids=["fifo", "k8s-default", "weighted-fair"],
    )
    def test_select_matches_tuple_reference(self, scheduler, reference):
        rng = np.random.default_rng(2024)
        chosen = 0
        for _ in range(400):
            view = random_view(rng)
            ready = [r for r in reference_entries(view, False) if r.slots > 0]
            expected = reference(scheduler, view, ready) if ready else None
            assert scheduler.select(view) == expected
            chosen += expected is not None
        assert chosen > 100


# -- the hypothesis property test --------------------------------------


@st.composite
def op_sequences(draw):
    """A random interleaving of frontier-mutating operations."""
    n_ops = draw(st.integers(min_value=4, max_value=25))
    return [draw(st.integers(min_value=0, max_value=2**31)) for _ in range(n_ops)]


class RecordingTable(FrontierTable):
    """A frontier table that keeps the matrix it served last: what a view
    was served, before the view dropped its blocked pairs."""

    def serve(self, *args, **kwargs):
        self.served = super().serve(*args, **kwargs)
        return self.served


@given(op_sequences())
@settings(max_examples=60, deadline=None)
def test_incremental_arrays_equal_from_scratch_rebuild(ops):
    """Random submit / launch / finish / preempt / withdraw interleavings
    keep one frontier table bit-equal to a from-scratch frontier rebuild.

    Mirrors the engine's discipline exactly: one table across views,
    grants and task finishes touching their stage's row, every other
    operation marking its job dirty, and finished or withdrawn jobs
    leaving the active set. After about two operations in three
    (so changes also pile up between serves), views under a
    random quota, busy count, shared pool, per-job cap, hoarded
    reservations and blocked pairs must serve both variants equal to the
    reference walk and to ``FrontierArrays.from_entries`` of it, as must a
    view built without a table; a second view over the unchanged state
    must be served the identical matrix object; the table must hold blocks
    for the active jobs only; and ``assignable_jobs`` must yield each
    job's first reference entry with free slots, in arrival order.
    """
    jobs: dict[int, JobRuntime] = {}
    active: dict[int, JobRuntime] = {}
    table = RecordingTable()
    next_job_id = 0

    def mutate(op_seed: int) -> None:
        nonlocal next_job_id
        op_rng = np.random.default_rng(op_seed)
        launched = [
            (job, sid)
            for job in active.values()
            for sid, sr in job.stages.items()
            if sr.running > 0
        ]
        assignable = [
            (job, sid)
            for job in active.values()
            for sid in job.ready_stage_ids()
        ]
        unstarted = [job for job in active.values() if not job.started]
        choices = ["submit"]
        if assignable:
            choices.append("launch")
        if launched:
            choices.extend(["finish", "preempt"])
        if unstarted:
            choices.append("withdraw")
        action = choices[int(op_rng.integers(len(choices)))]
        if action == "submit":
            dag = DAG_BUILDERS[int(op_rng.integers(len(DAG_BUILDERS)))]()
            job = JobRuntime(next_job_id, dag, arrival_time=float(next_job_id))
            jobs[next_job_id] = job
            active[next_job_id] = job
            next_job_id += 1
        elif action == "launch":
            # One grant: one or more tasks, possibly saturating the stage.
            job, sid = assignable[int(op_rng.integers(len(assignable)))]
            runtime = job.stages[sid]
            runtime.launch(int(op_rng.integers(1, runtime.unlaunched + 1)))
            table.touch(job.job_id, sid)
            return
        elif action == "finish":
            job, sid = launched[int(op_rng.integers(len(launched)))]
            if job.record_task_finish(sid, now=1.0):
                del active[job.job_id]
            table.touch(job.job_id, sid)
            return
        elif action == "preempt":
            job, sid = launched[int(op_rng.integers(len(launched)))]
            job.stages[sid].unlaunch(1)
        else:  # withdraw
            job = unstarted[int(op_rng.integers(len(unstarted)))]
            del jobs[job.job_id]
            del active[job.job_id]
        table.mark(job.job_id)

    for op_seed in ops:
        mutate(op_seed)
        op_rng = np.random.default_rng(op_seed + 1)
        if op_rng.integers(3) == 0:
            continue  # let marks and touches pile up, as within one step
        quota = int(op_rng.integers(1, 9))
        blocked_pool = [
            (job.job_id, sid)
            for job in active.values()
            for sid in job.ready_stage_ids(include_running=True)
        ]
        blocked = frozenset(
            pair
            for pair in blocked_pool
            if op_rng.integers(4) == 0  # ~25% of entries blocked
        )
        # On about half of the steps, hoarded executors bound to ~25% of
        # the jobs; the other half (without a per-job cap) share one
        # budget across all jobs.
        reserved_free = {}
        if op_rng.integers(2):
            reserved_free = {
                job.job_id: int(op_rng.integers(1, 4))
                for job in active.values()
                if op_rng.integers(4) == 0
            }
        kwargs = dict(
            total=8,
            quota=quota,
            busy=int(op_rng.integers(0, 8)),
            general_free=int(op_rng.integers(0, 7)),
            per_job_cap=[None, None, 2][int(op_rng.integers(3))],
            blocked=blocked,
            reserved_free=reserved_free,
        )
        plain_view = build_view(jobs, active=active, **kwargs)
        view = build_view(jobs, active=active, frontier_table=table, **kwargs)
        revisit = build_view(jobs, active=active, frontier_table=table, **kwargs)
        for flag in (False, True):
            entries = reference_entries(plain_view, flag)
            reference = FrontierArrays.from_entries(entries, jobs)
            served = view.frontier_arrays(flag)
            matrix = table.served
            assert_same_matrix(served, reference)
            assert served.entries() == entries
            assert_same_matrix(plain_view.frontier_arrays(flag), reference)
            again = revisit.frontier_arrays(flag)
            assert table.served is matrix
            assert_same_matrix(again, reference)
        assert set(table._blocks) == set(active)
        first_free = {}
        for r in reference_entries(plain_view, False):
            if r.slots > 0:
                first_free.setdefault(r.job_id, r.stage_id)
        assert [
            (job.job_id, sid) for job, sid in view.assignable_jobs()
        ] == list(first_free.items())
        assert view.has_assignable() == bool(first_free)


# -- the engine's table ------------------------------------------------


def scratch_twin(view: ClusterView) -> ClusterView:
    """``view`` rebuilt without a frontier table."""
    return ClusterView(
        time=view.time,
        total_executors=view.total_executors,
        busy_executors=view.busy_executors,
        quota=view.quota,
        jobs=view._jobs,
        carbon=view.carbon,
        per_job_cap=view.per_job_cap,
        blocked=view._blocked,
        general_free=view.general_free,
        reserved_free=view.reserved_free,
        active=view._active,
    )


class TestEngineFrontierTable:
    """The stepper's table, fed only by the engine's touches (grant, task
    finish) and marks (arrival, preemption, withdrawal), serves what a
    from-scratch build would serve."""

    @pytest.mark.parametrize(
        "scheduler",
        [
            lambda: DecimaScheduler(seed=1),
            lambda: PCAPSScheduler(DecimaScheduler(seed=1), gamma=0.5),
        ],
        ids=["decima", "pcaps"],
    )
    def test_every_frontier_equals_a_scratch_build(self, scheduler, monkeypatch):
        original = ClusterView.frontier_arrays
        served = []

        def checked(view, include_saturated=False):
            out = original(view, include_saturated)
            expected = original(scratch_twin(view), include_saturated)
            assert_same_matrix(out, expected)
            served.append(len(out))
            return out

        monkeypatch.setattr(ClusterView, "frontier_arrays", checked)
        sim = Simulation(
            config=ClusterConfig(num_executors=3, executor_move_delay=0.0),
            scheduler=scheduler(),
            carbon_api=CarbonIntensityAPI(make_trace([100.0] * 500)),
        )
        stepper = sim.stepper()

        def probe():
            """A view of the stepper's current state, built like the
            engine's, against its scratch twin."""
            view = ClusterView(
                time=0.0,
                total_executors=stepper.capacity,
                busy_executors=stepper.busy_executors,
                quota=stepper.capacity,
                jobs=stepper.jobs,
                carbon=reading(),
                general_free=stepper.pool.general_free,
                reserved_free=stepper.pool.reserved_counts(),
                active=stepper.active,
                frontier_table=stepper._frontier_table,
            )
            for flag in (False, True):
                view.frontier_arrays(flag)

        long_root = JobDAG(
            [Stage(0, 6, 100.0), Stage(1, 2, 10.0, parents=(0,))]
        )
        stepper.submit(JobSubmission(0.0, long_root, 0))
        stepper.submit(JobSubmission(5.0, diamond_dag(), 1))
        stepper.submit(JobSubmission(7.0, fan_dag(), 2))
        # Drop to one executor while job 0 holds all three (preempting
        # two of its tasks), then restore before any of them finishes.
        stepper.schedule_capacity(10.0, 1)
        stepper.schedule_capacity(20.0, 3)
        stepper.advance_through(5.0)
        probe()
        # Job 1 arrived with every executor busy: it has not started.
        assert stepper.withdraw(1) is not None
        probe()
        while stepper.events:
            stepper.step()
            probe()
        assert stepper.preempted_tasks == 2
        assert served
        assert len(stepper.result().trace.tasks) > 0
