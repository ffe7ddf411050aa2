"""FrontierArrays: the columnar ready frontier and its incremental caches.

Three layers of guarantees:

- unit tests pin the columnar representation against the tuple frontier
  (`ready_stages`) entry-for-entry, including blocked filtering and the
  ``entry()`` round-trip;
- a hypothesis property test drives random submit / launch / complete /
  preempt interleavings through views sharing one engine-style column
  cache (with the engine's frontier-epoch discipline) and asserts the
  incrementally maintained arrays stay bit-equal to a from-scratch
  rebuild at every step;
- path-equivalence tests check the vectorized sampling entry points of
  :class:`~repro.simulator.interfaces.ProbabilisticPolicy` draw the exact
  same schedule as the tuple path (`test_fingerprints.py` additionally
  pins this across the seven whole-trial scenarios).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.carbon.api import CarbonReading
from repro.dag.graph import JobDAG, Stage, diamond_dag
from repro.schedulers.decima import DecimaScheduler
from repro.simulator.state import ClusterView, FrontierArrays, JobRuntime


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
    column_cache=None,
    frontier_epoch=None,
    general_free=None,
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
        active=active,
        column_cache=column_cache,
        frontier_epoch=frontier_epoch,
    )


def reference_arrays(view, include_saturated):
    """From-scratch rebuild: tuple walk first, then columnar conversion."""
    return FrontierArrays.from_entries(
        view.ready_stages(include_saturated), view._jobs
    )


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
            entries = view.ready_stages(flag)
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
        assert entry == view.ready_stages()[0]

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

    def test_compress_tracks_provenance(self):
        job = JobRuntime(0, fan_dag(), arrival_time=0.0)
        job.stages[0].launch(1)
        job.record_task_finish(0, now=1.0)  # stages 1,2,3 become ready
        jobs = {0: job}
        view = build_view(jobs, active=jobs)
        fa = view.frontier_arrays()
        mask = fa.slots > 0
        sub = fa.compress(mask)
        assert sub.parent_data is fa.data
        assert sub.filter_mask is mask
        assert sub.data.tolist() == fa.data[mask].tolist()

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
        cache = {}
        view = build_view(jobs, active=jobs, column_cache=cache)
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
    """The columnar sampling path draws exactly like the tuple path."""

    def _twin_views(self, per_job_cap=None):
        def fresh():
            jobs = {
                0: JobRuntime(0, diamond_dag(), arrival_time=0.0),
                1: JobRuntime(1, fan_dag(), arrival_time=1.0),
            }
            jobs[1].stages[0].launch(1)
            return build_view(jobs, active=jobs, per_job_cap=per_job_cap)

        return fresh

    @pytest.mark.parametrize("per_job_cap", [None, 2])
    def test_select_sequences_identical(self, per_job_cap):
        fresh = self._twin_views(per_job_cap)
        fast = DecimaScheduler(seed=11)
        slow = DecimaScheduler(seed=11)
        slow.vectorized = False
        for _ in range(25):
            a, b = fast.select(fresh()), slow.select(fresh())
            assert a == b

    @pytest.mark.parametrize("per_job_cap", [None, 2])
    def test_sample_with_importance_identical(self, per_job_cap):
        fresh = self._twin_views(per_job_cap)
        fast = DecimaScheduler(seed=5)
        slow = DecimaScheduler(seed=5)
        slow.vectorized = False
        for _ in range(25):
            fa_pick, fa_imp = fast.sample_with_importance(fresh())
            tu_pick, tu_imp = slow.sample_with_importance(fresh())
            assert fa_pick == tu_pick
            assert fa_imp == tu_imp

    def test_scores_from_arrays_matches_scores(self):
        fresh = self._twin_views()
        view = fresh()
        policy = DecimaScheduler(seed=0)
        ready = view.ready_stages(include_saturated=True)
        fa = view.frontier_arrays(include_saturated=True)
        tuple_scores = policy.scores(view, ready)
        array_scores = policy.scores_from_arrays(view, fa)
        assert tuple_scores.tobytes() == array_scores.tobytes()

    def test_reset_clears_caches(self):
        policy = DecimaScheduler(seed=0)
        fresh = self._twin_views()
        policy.sample_with_importance(fresh())
        assert policy._score_cache is not None
        policy.reset()
        assert policy._score_cache is None
        assert policy._dist_cache is None


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
        full = view.frontier_arrays()
        # The SRPT denominator (max remaining work) belongs to one job.
        heavy = full.remaining_work == full.remaining_work.max()
        assert heavy.any() and not heavy.all()
        return view, full, heavy

    def assert_fresh(self, view, frontier, raw):
        fresh = DecimaScheduler(seed=0).scores_from_arrays(view, frontier)
        assert raw.tobytes() == fresh.tobytes()

    def test_same_matrix_is_scored_once(self):
        view, full, _ = self._frontier()
        policy = CountingDecima()
        first = policy._raw_scores(view, full)
        second = policy._raw_scores(view, full)
        assert policy.scorings == 1
        self.assert_fresh(view, full, second)
        assert second is first

    def test_filter_keeping_the_denominator_slices_the_parent(self):
        view, full, heavy = self._frontier()
        keep = heavy.copy()
        keep[np.flatnonzero(~heavy)[1:]] = True  # drop one light row
        sub = full.compress(keep)
        policy = CountingDecima()
        policy._raw_scores(view, full)
        raw = policy._raw_scores(view, sub)
        assert policy.scorings == 1
        self.assert_fresh(view, sub, raw)

    def test_filter_dropping_the_denominator_rescores(self):
        view, full, heavy = self._frontier()
        sub = full.compress(~heavy)
        policy = CountingDecima()
        policy._raw_scores(view, full)
        raw = policy._raw_scores(view, sub)
        assert policy.scorings == 2
        self.assert_fresh(view, sub, raw)
        # The cache stays anchored to the unfiltered matrix.
        assert policy._score_cache[0] is full.data


# -- the hypothesis property test --------------------------------------


@st.composite
def op_sequences(draw):
    """A random interleaving of frontier-mutating operations."""
    n_ops = draw(st.integers(min_value=4, max_value=25))
    return [draw(st.integers(min_value=0, max_value=2**31)) for _ in range(n_ops)]


@given(op_sequences(), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=60, deadline=None)
def test_incremental_arrays_equal_from_scratch_rebuild(ops, view_seed):
    """Random submit/launch/complete/preempt interleavings keep the shared
    column cache bit-equal to a from-scratch frontier rebuild.

    Mirrors the engine's maintenance discipline exactly: one persistent
    column-cache dict across views, a frontier epoch bumped on every
    mutation, and completed jobs leaving the active set. After every
    operation the cached columnar frontier (built through the shared
    cache, twice — the second build exercising the view- and job-level
    hits) must equal the reference built with no cache at all.
    """
    rng = np.random.default_rng(view_seed)
    jobs: dict[int, JobRuntime] = {}
    active: dict[int, JobRuntime] = {}
    cache: dict = {}
    epoch = 0
    next_job_id = 0

    def mutate(op_seed: int) -> None:
        nonlocal epoch, next_job_id
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
        choices = ["submit"]
        if assignable:
            choices.append("launch")
        if launched:
            choices.extend(["complete", "preempt"])
        action = choices[int(op_rng.integers(len(choices)))]
        if action == "submit":
            dag = DAG_BUILDERS[int(op_rng.integers(len(DAG_BUILDERS)))]()
            job = JobRuntime(next_job_id, dag, arrival_time=float(next_job_id))
            jobs[next_job_id] = job
            active[next_job_id] = job
            next_job_id += 1
        elif action == "launch":
            job, sid = assignable[int(op_rng.integers(len(assignable)))]
            job.stages[sid].launch(1)
        elif action == "complete":
            job, sid = launched[int(op_rng.integers(len(launched)))]
            if job.record_task_finish(sid, now=1.0):
                del active[job.job_id]
                cache.pop((job.job_id, False), None)
                cache.pop((job.job_id, True), None)
        else:  # preempt
            job, sid = launched[int(op_rng.integers(len(launched)))]
            job.stages[sid].unlaunch(1)
        epoch += 1

    for op_seed in ops:
        mutate(op_seed)
        op_rng = np.random.default_rng(op_seed + 1)
        busy = int(op_rng.integers(0, 7))
        general_free = int(op_rng.integers(0, 7))
        per_job_cap = [None, 2][int(op_rng.integers(2))]
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
        kwargs = dict(
            busy=busy,
            general_free=general_free,
            per_job_cap=per_job_cap,
            blocked=blocked,
        )
        cached_view = build_view(
            jobs, active=active,
            column_cache=cache, frontier_epoch=epoch, **kwargs,
        )
        for flag in (False, True):
            reference = reference_arrays(
                build_view(jobs, active=active, **kwargs), flag
            )
            assert_same_matrix(cached_view.frontier_arrays(flag), reference)
            # A second view over the identical state must hit the caches
            # (job-level, and view-level when eligible) and still agree.
            revisit = build_view(
                jobs, active=active,
                column_cache=cache, frontier_epoch=epoch, **kwargs,
            )
            assert_same_matrix(revisit.frontier_arrays(flag), reference)
            assert revisit.ready_stages(flag) == reference.entries()
