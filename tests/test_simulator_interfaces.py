"""Unit tests for scheduler/provisioner interfaces."""

import numpy as np
import pytest

from repro.carbon.api import CarbonReading
from repro.dag.graph import JobDAG, Stage
from repro.simulator.interfaces import (
    ProbabilisticPolicy,
    StageChoice,
    StaticProvisioner,
)
from repro.simulator.state import ClusterView, JobRuntime


class UniformPolicy(ProbabilisticPolicy):
    """Equal scores for every ready stage — the simplest Def. 4.1 policy."""

    name = "uniform"

    def scores_from_arrays(self, view, frontier):
        return np.zeros(len(frontier))


class SkewedPolicy(ProbabilisticPolicy):
    """Mass concentrated on the highest stage id; counts its scorings."""

    name = "skewed"

    def __init__(self, seed=0, temperature=1.0):
        super().__init__(seed=seed, temperature=temperature)
        self.scorings = 0

    def scores_from_arrays(self, view, frontier):
        self.scorings += 1
        return frontier.stage_ids.astype(float)


def skewed_probs(view, temperature=1.0):
    """:class:`SkewedPolicy`'s distribution over the full frontier, by
    hand: a softmax of stage ids."""
    ids = np.array(
        [r.stage_id for r in view.frontier_arrays(True).entries()], dtype=float
    )
    weights = np.exp((ids - ids.max()) / temperature)
    return weights / weights.sum()


def view_with(stages, busy=0, total=4, launched=None):
    dag = JobDAG(stages)
    job = JobRuntime(0, dag, arrival_time=0.0)
    for sid, count in (launched or {}).items():
        job.stages[sid].launch(count)
    return ClusterView(
        time=0.0,
        total_executors=total,
        busy_executors=busy,
        quota=total,
        jobs={0: job},
        carbon=CarbonReading(0.0, 100.0, 50.0, 200.0),
    )


class TestDistribution:
    """The distribution a policy's scores induce, read back through
    ``sample_with_importance``: a draw restricted to one row returns that
    row's probability relative to the frontier's most likely row."""

    def test_uniform_distribution(self):
        view = view_with([Stage(0, 1, 1.0), Stage(1, 1, 1.0)])
        policy = UniformPolicy(seed=0)
        for row in (0, 1):
            chosen, importance = policy.sample_with_importance(
                view, np.array([row])
            )
            assert chosen.stage_id == row
            assert importance == pytest.approx(1.0)

    def test_empty_frontier_empty_distribution(self):
        view = ClusterView(
            time=0.0, total_executors=4, busy_executors=0, quota=4, jobs={},
            carbon=CarbonReading(0.0, 100.0, 50.0, 200.0),
        )
        assert len(view.frontier_arrays(True)) == 0
        policy = SkewedPolicy(seed=0)
        assert policy.select(view) is None
        assert policy.sample_with_importance(view) is None
        assert policy.scorings == 0

    def test_temperature_sharpens(self):
        view = view_with([Stage(0, 1, 1.0), Stage(1, 1, 1.0)])
        low_row = np.array([0])
        _, soft = SkewedPolicy(
            seed=0, temperature=10.0
        ).sample_with_importance(view, low_row)
        _, sharp = SkewedPolicy(
            seed=0, temperature=0.1
        ).sample_with_importance(view, low_row)
        assert sharp < soft < 1.0
        probs = skewed_probs(view, temperature=10.0)
        assert soft == pytest.approx(probs[0] / probs[1])

    def test_wrong_score_shape_rejected(self):
        class Broken(ProbabilisticPolicy):
            extra = 1

            def scores_from_arrays(self, view, frontier):
                return np.zeros(len(frontier) + self.extra)

        view = view_with([Stage(0, 1, 1.0), Stage(1, 1, 1.0)])
        for extra in (1, -1):
            Broken.extra = extra
            with pytest.raises(ValueError):
                Broken(seed=0).select(view)
            with pytest.raises(ValueError):
                Broken(seed=0).sample_with_importance(view)


class TestSampling:
    def test_select_returns_valid_choice(self):
        view = view_with([Stage(0, 2, 1.0), Stage(1, 2, 1.0)])
        choice = UniformPolicy(seed=0).select(view)
        assert isinstance(choice, StageChoice)
        assert choice.stage_id in (0, 1)

    def test_select_none_when_nothing_assignable(self):
        view = view_with([Stage(0, 1, 1.0)], launched={0: 1}, busy=1)
        assert UniformPolicy(seed=0).select(view) is None

    def test_sample_with_importance_normalizes_over_full_frontier(self):
        # Stage 1 (saturated) carries most mass; assignable stage 0 must get
        # importance < 1 relative to it.
        view = view_with(
            [Stage(0, 1, 1.0), Stage(1, 1, 1.0)], launched={1: 1}, busy=1
        )
        policy = SkewedPolicy(seed=0, temperature=0.2)
        chosen, importance = policy.sample_with_importance(view)
        assert chosen.stage_id == 0
        assert importance < 1.0

    def test_sample_with_importance_singleton_is_one(self):
        view = view_with([Stage(0, 1, 1.0)])
        policy = UniformPolicy(seed=0)
        chosen, importance = policy.sample_with_importance(view)
        assert chosen.stage_id == 0
        assert importance == pytest.approx(1.0)

    def test_sample_with_importance_none_when_all_saturated(self):
        view = view_with([Stage(0, 1, 1.0)], launched={0: 1}, busy=1)
        assert UniformPolicy(seed=0).sample_with_importance(view) is None

    def test_reset_restores_sampling_sequence(self):
        view = view_with([Stage(i, 1, 1.0) for i in range(4)])
        policy = UniformPolicy(seed=5)
        first = [policy.select(view).stage_id for _ in range(5)]
        policy.reset()
        second = [policy.select(view).stage_id for _ in range(5)]
        assert first == second


def masked_view():
    """Stages 0-3 all ready; stage 3 (the policies' favourite) saturated."""
    return view_with(
        [Stage(i, 1, 1.0) for i in range(4)], launched={3: 1}, busy=1
    )


@pytest.fixture(params=[SkewedPolicy], ids=["columnar"])
def policy_cls(request):
    return request.param


class TestCandidateMask:
    """``sample_with_importance(view, candidates)``: the draw is limited to
    the candidate rows of the full frontier, the distribution is not."""

    def test_default_candidates_are_rows_with_free_slots(self, policy_cls):
        view = masked_view()
        full = view.frontier_arrays(include_saturated=True).entries()
        free = np.flatnonzero([r.slots > 0 for r in full])
        assert len(free) == 3
        default, explicit = policy_cls(seed=4), policy_cls(seed=4)
        for _ in range(20):
            assert default.sample_with_importance(
                view
            ) == explicit.sample_with_importance(view, free)

    def test_draw_stays_inside_candidates(self, policy_cls):
        view = masked_view()
        policy = policy_cls(seed=1)
        picks = {
            policy.sample_with_importance(view, np.array([0, 2]))[0].stage_id
            for _ in range(50)
        }
        assert picks <= {0, 2}

    def test_importance_is_relative_to_whole_frontier(self, policy_cls):
        view = masked_view()
        full = view.frontier_arrays(include_saturated=True).entries()
        probs = skewed_probs(view)
        policy = policy_cls(seed=2)
        for _ in range(10):
            chosen, importance = policy.sample_with_importance(
                view, np.array([0, 1])
            )
            row = full.index(chosen)
            # Normalized by the saturated stage 3's mass, not the
            # candidates' own maximum.
            assert importance == pytest.approx(probs[row] / probs[3])
            assert importance < 1.0

    def test_empty_candidates_return_none_without_drawing(self, policy_cls):
        view = masked_view()
        policy, fresh = policy_cls(seed=3), policy_cls(seed=3)
        assert policy.sample_with_importance(view, np.array([], dtype=int)) is None
        assert policy.sample_with_importance(
            view
        ) == fresh.sample_with_importance(view)


class TestDistributionCache:
    """The columnar path scores each frontier matrix once; repeated draws
    over it only advance the RNG."""

    def test_unchanged_frontier_is_scored_once(self):
        view = masked_view()
        policy = SkewedPolicy(seed=0)
        for _ in range(5):
            policy.sample_with_importance(view)
        assert policy.scorings == 1
        policy.sample_with_importance(masked_view())  # a new matrix object
        assert policy.scorings == 2

    def test_cache_hits_draw_like_fresh_scoring(self):
        view = masked_view()
        cached, uncached = SkewedPolicy(seed=7), SkewedPolicy(seed=7)
        for _ in range(20):
            uncached._dist_cache = None
            assert cached.sample_with_importance(
                view
            ) == uncached.sample_with_importance(view)
        assert cached.scorings == 1 and uncached.scorings == 20


class TestStaticProvisioner:
    def test_quota_fixed(self):
        view = view_with([Stage(0, 1, 1.0)])
        provisioner = StaticProvisioner(3)
        assert provisioner.quota(view) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            StaticProvisioner(0)

    def test_default_parallelism_scaling_is_identity(self):
        view = view_with([Stage(0, 1, 1.0)])
        assert StaticProvisioner(3).scale_parallelism(7, view) == 7
