"""Unit tests for DAG structural metrics."""

from hypothesis import given, settings, strategies as st

from repro.dag.graph import JobDAG, Stage, chain_dag, diamond_dag
from repro.dag.metrics import (
    bottleneck_scores,
    critical_path_length,
    descendant_work,
    longest_path_stages,
    remaining_work,
)

from conftest import reference_bottleneck_scores


class TestCriticalPath:
    def test_chain_is_sum(self):
        dag = chain_dag([1.0, 2.0, 3.0])
        assert critical_path_length(dag) == 6.0

    def test_diamond_takes_longer_branch(self):
        dag = diamond_dag(top=1.0, left=5.0, right=2.0, bottom=1.0)
        assert critical_path_length(dag) == 1 + 5 + 1

    def test_completed_stages_excluded(self):
        dag = chain_dag([1.0, 2.0, 3.0])
        assert critical_path_length(dag, completed={0}) == 5.0
        assert critical_path_length(dag, completed={0, 1, 2}) == 0.0

    def test_multi_task_stage_counts_one_wave(self):
        dag = JobDAG([Stage(0, 10, 2.0)])
        assert critical_path_length(dag) == 2.0

    def test_longest_path_stages(self):
        dag = diamond_dag(top=1.0, left=5.0, right=2.0, bottom=1.0)
        assert longest_path_stages(dag) == (0, 1, 3)


class TestDescendantWork:
    def test_leaf_is_own_work(self):
        dag = diamond_dag(top=1.0, left=2.0, right=3.0, bottom=4.0)
        assert descendant_work(dag, 3) == 4.0

    def test_root_is_total(self):
        dag = diamond_dag(top=1.0, left=2.0, right=3.0, bottom=4.0)
        assert descendant_work(dag, 0) == dag.total_work

    def test_branch_includes_sink(self):
        dag = diamond_dag(top=1.0, left=2.0, right=3.0, bottom=4.0)
        assert descendant_work(dag, 1) == 2.0 + 4.0

    def test_shared_descendants_not_double_counted(self):
        # 0 -> 1, 0 -> 2, {1,2} -> 3; descendant work of 0 visits 3 once.
        dag = diamond_dag(top=1.0, left=1.0, right=1.0, bottom=10.0)
        assert descendant_work(dag, 0) == 13.0


class TestRemainingWork:
    def test_initial_is_total(self):
        dag = diamond_dag()
        assert remaining_work(dag) == dag.total_work

    def test_excludes_completed(self):
        dag = diamond_dag(top=1.0, left=2.0, right=3.0, bottom=4.0)
        assert remaining_work(dag, {0, 1}) == 7.0

    def test_empty_when_done(self):
        dag = diamond_dag()
        assert remaining_work(dag, set(dag.stage_ids())) == 0.0


class TestBottleneckScores:
    def test_scores_cover_incomplete_stages(self):
        dag = diamond_dag()
        scores = bottleneck_scores(dag)
        assert set(scores) == {0, 1, 2, 3}
        scores = bottleneck_scores(dag, completed={0})
        assert set(scores) == {1, 2, 3}

    def test_root_scores_highest_initially(self):
        dag = diamond_dag(top=1.0, left=2.0, right=3.0, bottom=4.0)
        scores = bottleneck_scores(dag)
        assert scores[0] == max(scores.values())

    def test_bottleneck_branch_beats_side_branch(self):
        dag = JobDAG(
            [
                Stage(0, 1, 1.0),
                Stage(1, 1, 1.0, parents=(0,)),  # side task
                Stage(2, 1, 5.0, parents=(0,)),  # gateway to a long chain
                Stage(3, 1, 5.0, parents=(2,)),
                Stage(4, 1, 1.0, parents=(1, 3)),
            ]
        )
        scores = bottleneck_scores(dag, completed={0})
        assert scores[2] > scores[1]

    def test_scores_in_unit_interval(self):
        dag = diamond_dag(top=1.0, left=2.0, right=3.0, bottom=4.0)
        for value in bottleneck_scores(dag).values():
            assert 0.0 <= value <= 1.0

    def test_empty_when_all_done(self):
        dag = diamond_dag()
        assert bottleneck_scores(dag, completed=set(dag.stage_ids())) == {}


@st.composite
def dag_and_completed(draw):
    """A random DAG of up to nine stages, and a completion set closed
    under ancestors (a stage is done only if its parents are)."""
    n = draw(st.integers(min_value=1, max_value=9))
    stages = []
    for sid in range(n):
        parents = tuple(p for p in range(sid) if draw(st.booleans()))
        stages.append(
            Stage(
                sid,
                draw(st.integers(min_value=1, max_value=6)),
                draw(st.floats(min_value=0.01, max_value=500.0)),
                parents=parents,
            )
        )
    dag = JobDAG(stages)
    done: set[int] = set()
    for sid in dag.topological_order():
        if all(p in done for p in dag.parents(sid)) and draw(st.booleans()):
            done.add(sid)
    return dag, done


@settings(max_examples=200, deadline=None)
@given(dag_and_completed())
def test_bottleneck_scores_equal_the_per_call_walk(case):
    """The cached chains give the uncached walk's floats bit for bit, on
    every completion set a running job can reach."""
    dag, done = case
    assert repr(bottleneck_scores(dag, done)) == repr(
        reference_bottleneck_scores(dag, done)
    )


def test_chain_map_is_the_longest_chain_from_each_stage():
    dag = diamond_dag(top=1.0, left=2.0, right=3.0, bottom=4.0)
    assert dict(dag.chain_map()) == {0: 8.0, 1: 6.0, 2: 7.0, 3: 4.0}
    assert dag.chain_map() is dag.chain_map()
