"""DAG job model.

Data processing jobs are directed acyclic graphs of *stages* (Section 2.1 of
the paper; Spark terminology). Each stage bundles ``num_tasks`` identical
tasks that can run in parallel on different executors; an edge ``u -> v``
means stage ``v`` cannot start until every task of stage ``u`` has finished.

The classes here are immutable descriptions; runtime progress (which tasks
have run, on which executors) lives in :mod:`repro.simulator`.
"""

from repro._lazy import lazy_exports

_SUBMODULE_OF = {
    **dict.fromkeys(
        ("JobDAG", "Stage", "chain_dag", "diamond_dag", "fork_join_dag"), "graph"
    ),
    **dict.fromkeys(
        (
            "bottleneck_scores",
            "critical_path_length",
            "descendant_work",
            "longest_path_stages",
            "remaining_work",
        ),
        "metrics",
    ),
}
__getattr__ = lazy_exports(__name__, _SUBMODULE_OF)
__all__ = sorted(_SUBMODULE_OF)
