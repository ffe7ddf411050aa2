"""Weighted Fair scheduling.

The paper's simulator baseline "assigns executors proportionally to each
job's workload, with tuned weights to improve performance on the simulated
workloads" (Section 6.1). We implement it as max-min entitlement tracking:
each active job's entitlement is proportional to its remaining work raised
to a tunable exponent, and the job furthest below its entitlement receives
the next executor.

A job's limit is its entitlement (at most its stage's task count), which
depends on every job weighed, so no mask can apply it before the choice.
When the chosen stage already runs that limit's scaled value, ``select``
passes over the pair, lets the job's next stage that can grow take its
place (or drops the job), and weighs the jobs again.
"""

from __future__ import annotations

from repro.simulator.interfaces import (
    NOTHING_GROWABLE,
    NothingGrowable,
    StageChoice,
    StageScheduler,
)
from repro.simulator.state import ClusterView


class WeightedFairScheduler(StageScheduler):
    """Executors proportional to (remaining work) ** ``weight_exponent``.

    ``weight_exponent`` below 1 (default 0.5) dampens the proportionality so
    small jobs still get a meaningful share — this is the "tuned weights"
    aspect of the paper's heuristic, which otherwise would starve short jobs
    behind large ones.
    """

    name = "weighted-fair"

    def __init__(self, weight_exponent: float = 0.5) -> None:
        if weight_exponent < 0:
            raise ValueError("weight_exponent must be >= 0")
        self.weight_exponent = weight_exponent

    def select(
        self, view: ClusterView
    ) -> StageChoice | NothingGrowable | None:
        # (job, stage) pairs picked in this call at their scaled limit.
        passed: set[tuple[int, int]] = set()
        while (pick := self._weigh(view, passed)) is not None:
            job_id, stage_id, limit = pick
            running = view.job(job_id).stages[stage_id].running
            if running < view.scaled_limit(limit):
                return StageChoice(
                    job_id=job_id, stage_id=stage_id, parallelism_limit=limit
                )
            passed.add((job_id, stage_id))
        return NOTHING_GROWABLE if passed else None

    def _weigh(
        self, view: ClusterView, passed: set[tuple[int, int]]
    ) -> tuple[int, int, int] | None:
        """The job furthest below its entitlement, its first assignable
        stage not in ``passed``, and the stage's limit; ``None`` when no
        job has such a stage."""
        first_stage = {
            job.job_id: stage_id
            for job, stage_id in view.assignable_jobs(passed)
        }
        if not first_stage:
            return None
        # Filled in arrival order, element by element: the set's iteration
        # order fixes the weight sum's float order and breaks ties below.
        jobs = {job_id for job_id in first_stage}
        weights = {
            job_id: max(view.job(job_id).remaining_work(), 1e-9)
            ** self.weight_exponent
            for job_id in jobs
        }
        total_weight = sum(weights.values())
        usable = max(view.quota, 1)

        def deficit(job_id: int) -> float:
            entitlement = usable * weights[job_id] / total_weight
            return view.job(job_id).executors_in_use - entitlement

        best_job = min(jobs, key=lambda j: (deficit(j), view.job(j).arrival_time))
        if deficit(best_job) >= 0:
            # Every job is at or above its fair share; round-robin overflow
            # keeps executors busy rather than idling them.
            best_job = min(jobs, key=lambda j: view.job(j).executors_in_use)
        entitlement = max(1, round(usable * weights[best_job] / total_weight))
        stage_id = first_stage[best_job]
        num_tasks = view.job(best_job).stages[stage_id].stage.num_tasks
        return best_job, stage_id, min(entitlement, num_tasks)
