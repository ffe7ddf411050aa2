"""Output checks for the benchmark: invariants any valid schedule meets.

None of these compare against pinned fingerprints, so a deliberate change
to scheduling randomness does not trip them; they check what every correct
run of Algorithm 1's engine must produce. Each check returns a list of
violation strings (empty when the output is correct).
"""

from __future__ import annotations

import math
from collections import defaultdict

#: Relative tolerance between the program's vectorized carbon tally and the
#: per-record recompute (both sum exactly with ``math.fsum``; only the
#: per-interval float operations may differ in the last bits).
CARBON_RTOL = 1e-9


def check_schedule(trace, submissions, carbon_trace, carbon_total) -> list[str]:
    """Check one materialized batch schedule.

    - every ``(job, stage, task_index)`` of the submitted DAGs runs exactly
      once (preempted records are ignored: they re-run later);
    - no task starts before its job arrives, nor before every task of each
      parent stage has ended;
    - no executor runs two tasks over overlapping intervals;
    - ``carbon_total`` equals an independent per-record recompute from
      :meth:`CarbonTrace.integrate`, idle-but-held time weighted at the
      trace's ``idle_power_fraction``.
    """
    violations: list[str] = []
    dags = {sub.job_id: sub.dag for sub in submissions}
    arrivals = {sub.job_id: sub.arrival_time for sub in submissions}
    tasks = [record for record in trace.tasks if not record.preempted]

    runs: dict[tuple[int, int, int], int] = defaultdict(int)
    stage_end: dict[tuple[int, int], float] = {}
    for record in tasks:
        runs[(record.job_id, record.stage_id, record.task_index)] += 1
        key = (record.job_id, record.stage_id)
        if record.end > stage_end.get(key, -math.inf):
            stage_end[key] = record.end
    for job_id, dag in dags.items():
        for stage_id in dag.stage_ids():
            for index in range(dag.stage(stage_id).num_tasks):
                count = runs.pop((job_id, stage_id, index), 0)
                if count != 1:
                    violations.append(
                        f"task {(job_id, stage_id, index)} ran {count} times"
                    )
    for key in runs:
        violations.append(f"task {key} is not in any submitted DAG")

    for record in tasks:
        dag = dags.get(record.job_id)
        if dag is None or record.stage_id not in dag:
            continue
        if record.start < arrivals[record.job_id]:
            violations.append(
                f"task {(record.job_id, record.stage_id, record.task_index)} "
                f"starts at {record.start} before its job arrives"
            )
        for parent in dag.parents(record.stage_id):
            parent_end = stage_end.get((record.job_id, parent), math.inf)
            if record.start < parent_end:
                violations.append(
                    f"task {(record.job_id, record.stage_id, record.task_index)} "
                    f"starts at {record.start} before parent stage {parent} "
                    f"ends at {parent_end}"
                )

    by_executor: dict[int, list] = defaultdict(list)
    for record in trace.tasks:
        by_executor[record.executor_id].append(record)
    for executor_id, records in by_executor.items():
        records.sort(key=lambda r: (r.start, r.end))
        for before, after in zip(records, records[1:]):
            if after.start < before.end:
                violations.append(
                    f"executor {executor_id} overlaps: [{before.start}, "
                    f"{before.end}] and [{after.start}, {after.end}]"
                )

    expected = recompute_carbon(trace, carbon_trace)
    if not math.isclose(carbon_total, expected, rel_tol=CARBON_RTOL):
        violations.append(
            f"carbon tally {carbon_total!r} != per-record recompute {expected!r}"
        )
    return violations


def recompute_carbon(trace, carbon_trace) -> float:
    """Carbon of a schedule from one :meth:`CarbonTrace.integrate` call per
    task and hold record."""
    task_carbon = math.fsum(
        carbon_trace.integrate(r.start, r.end) for r in trace.tasks
    )
    if not trace.holds:
        return task_carbon
    hold_carbon = math.fsum(
        carbon_trace.integrate(r.start, r.end) for r in trace.holds
    )
    return task_carbon + trace.idle_power_fraction * max(
        hold_carbon - task_carbon, 0.0
    )


def check_stream(report, max_jobs: int, checkpoint_every: int) -> list[str]:
    """Check one drained service run: every job done, nothing left open,
    and a rolling checkpoint written on the configured cadence."""
    violations: list[str] = []
    if report.jobs_completed != max_jobs:
        violations.append(
            f"stream completed {report.jobs_completed} of {max_jobs} jobs"
        )
    if report.open_tasks != 0:
        violations.append(f"stream ended with {report.open_tasks} open tasks")
    if report.jobs_active != 0 or not report.drained:
        violations.append(
            f"stream not drained ({report.jobs_active} jobs still active)"
        )
    expected = report.epochs // checkpoint_every
    if report.checkpoints_written != expected:
        violations.append(
            f"{report.checkpoints_written} checkpoints written, "
            f"expected {expected}"
        )
    return violations


def check_campaign(cold, warm, num_trials: int) -> list[str]:
    """Check a cold campaign pass and its resume pass over the same store:
    no failures, one ok record per trial, and a 100% cache hit ratio on
    the resume with records identical to the cold pass."""
    violations: list[str] = []
    if cold.failures:
        violations.append(f"{len(cold.failures)} campaign trials failed")
    keys = [record.key for record in cold.records]
    if len(keys) != num_trials or len(set(keys)) != num_trials:
        violations.append(
            f"{len(set(keys))} distinct records for {num_trials} trials"
        )
    if not all(record.ok for record in cold.records):
        violations.append("a cold-pass record is not ok")
    if warm.stats.misses != 0 or warm.stats.hits != num_trials:
        violations.append(
            f"resume pass hit {warm.stats.hits} of {num_trials} trials"
        )
    if [r.metrics for r in warm.records] != [r.metrics for r in cold.records]:
        violations.append("resume pass records differ from the cold pass")
    return violations
