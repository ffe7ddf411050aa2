"""Unit tests for DAG structural metrics."""

from repro.dag.graph import JobDAG, Stage, chain_dag, diamond_dag
from repro.dag.metrics import (
    bottleneck_scores,
    critical_path_length,
    descendant_work,
    longest_path_stages,
    remaining_work,
)


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
