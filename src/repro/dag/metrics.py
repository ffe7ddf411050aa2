"""Structural metrics over job DAGs.

These quantities drive both the Decima surrogate's stage scoring and the
analysis module: critical-path length bounds the makespan from below, and
descendant work measures how much future computation a stage gates — the
paper's intuition for "bottleneck" stages (Section 4.1, Fig. 3).
"""

from __future__ import annotations

from repro.dag.graph import JobDAG


def critical_path_length(
    dag: JobDAG, completed: frozenset[int] | set[int] = frozenset()
) -> float:
    """Length of the longest remaining dependency chain, in seconds.

    Stage durations assume unlimited parallelism (each stage contributes one
    ``task_duration`` wave). Completed stages contribute zero. This is the
    classic makespan lower bound for unlimited machines.
    """
    done = set(completed)
    longest: dict[int, float] = {}
    for sid in dag.topological_order():
        stage = dag.stage(sid)
        own = 0.0 if sid in done else stage.task_duration
        upstream = max((longest[p] for p in stage.parents), default=0.0)
        longest[sid] = upstream + own
    return max(longest.values(), default=0.0)


def longest_path_stages(dag: JobDAG) -> tuple[int, ...]:
    """Stage ids along one critical path, in execution order."""
    longest: dict[int, float] = {}
    best_parent: dict[int, int | None] = {}
    for sid in dag.topological_order():
        stage = dag.stage(sid)
        parent, upstream = None, 0.0
        for p in stage.parents:
            if longest[p] > upstream:
                parent, upstream = p, longest[p]
        longest[sid] = upstream + stage.task_duration
        best_parent[sid] = parent
    if not longest:
        return ()
    tail = max(longest, key=lambda sid: longest[sid])
    path = [tail]
    while best_parent[path[-1]] is not None:
        path.append(best_parent[path[-1]])  # type: ignore[arg-type]
    return tuple(reversed(path))


def descendant_work(dag: JobDAG, stage_id: int) -> float:
    """Total work (executor-seconds) gated behind ``stage_id``.

    Includes the stage's own work plus the work of every transitive
    descendant. A stage with large descendant work is a bottleneck: deferring
    it delays everything downstream.
    """
    seen: set[int] = set()
    frontier = [stage_id]
    while frontier:
        sid = frontier.pop()
        if sid in seen:
            continue
        seen.add(sid)
        frontier.extend(dag.children(sid))
    return sum(dag.stage(sid).work for sid in seen)


def remaining_work(
    dag: JobDAG, completed: frozenset[int] | set[int] = frozenset()
) -> float:
    """Executor-seconds of work not yet completed."""
    done = set(completed)
    return sum(s.work for sid, s in dag.stages.items() if sid not in done)


def bottleneck_scores(
    dag: JobDAG, completed: frozenset[int] | set[int] = frozenset()
) -> dict[int, float]:
    """Per-stage bottleneck score for the not-yet-completed stages.

    The score combines (a) the work gated behind the stage and (b) the
    longest downstream dependency chain, both normalized by the job's
    remaining totals so scores are comparable across jobs. Higher means more
    critical. Used by the Decima surrogate's policy head.

    ``completed`` must be closed under ancestors (a completed stage's
    parents are completed), as a running job's always is: the chains and
    gated work are then constants of the DAG (:meth:`JobDAG.chain_map`,
    :meth:`JobDAG.descendant_work_map`), and the longest chain of any stage
    is at most that of an incomplete one, so each call only sums the
    remaining work, takes the longest live chain and scores.
    """
    done = set(completed)
    remaining = remaining_work(dag, done)
    if remaining <= 0:
        return {}
    chains = dag.chain_map()
    gated_work = dag.descendant_work_map()
    live = [sid for sid in dag.stage_ids() if sid not in done]
    max_chain = max((chains[sid] for sid in live), default=0.0)
    scores: dict[int, float] = {}
    for sid in live:
        scores[sid] = 0.5 * (gated_work[sid] / remaining) + 0.5 * (
            chains[sid] / max_chain if max_chain > 0 else 0.0
        )
    return scores
