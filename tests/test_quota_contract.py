"""CAP's quota contract, checked on the engine path Kubernetes mode takes.

The paper's prototype runs CAP as a daemon that rewrites a Kubernetes
resource quota, and "when the quota is lowered, existing pods are not
preempted, but new pods are not scheduled until usage falls below the
quota" (Section 5.1). Here that mode is ``ExperimentConfig(mode=
"kubernetes")``: :func:`~repro.experiments.runner.simulation_for` turns it
into ``ClusterConfig.per_job_executor_cap``, and the engine's assignment
pass enforces the provisioner's quota. The tests run that path and read
the guarantees off the trace records alone:

- no launch takes the tasks in flight above the quota in force, and in
  Kubernetes mode no job above its executor cap;
- a quota drop below the busy count preempts nothing;
- an empty cluster never idles while an arrived job is unfinished
  (Algorithm 1's minimum progress, with CAP's floor ``B >= 1``).

``ScheduleTrace.add_quota`` records only changes, so the quota in force at
``t`` is the last record at or before ``t``.
"""

from __future__ import annotations

import bisect
import itertools
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.carbon.grids import GRID_CODES, PAPER_TRACE_HOURS
from repro.carbon.trace import CarbonTrace
from repro.dag.graph import JobDAG, Stage
from repro.experiments.runner import (
    SCHEDULER_NAMES,
    ExperimentConfig,
    run_experiment,
    simulation_for,
    workload_for,
)
from repro.workloads.arrivals import JobSubmission
from repro.workloads.batch import WorkloadSpec

from conftest import assert_valid_schedule

MODES = ("standalone", "kubernetes")
WORKLOAD = WorkloadSpec(
    family="tpch", num_jobs=3, mean_interarrival=60.0, tpch_scales=(2,)
)
CAP_WRAPPED = tuple(name for name in SCHEDULER_NAMES if name.startswith("cap-"))


def quota_in_force(quotas, t: float) -> int:
    """The last quota recorded at or before ``t``."""
    index = bisect.bisect_right([q.time for q in quotas], t) - 1
    assert index >= 0, f"no quota recorded by t={t}"
    return quotas[index].quota


def in_flight(tasks, t: float) -> list:
    return [task for task in tasks if task.start <= t < task.end]


@st.composite
def clusters(draw) -> tuple[int, int]:
    """``(K, B)`` with ``K`` in 2-8 and CAP's floor ``B`` in 1-min(3, K)."""
    executors = draw(st.integers(min_value=2, max_value=8))
    return executors, draw(st.integers(min_value=1, max_value=min(3, executors)))


@pytest.mark.parametrize(
    "scheduler,mode", list(itertools.product(SCHEDULER_NAMES, MODES))
)
@settings(max_examples=6, deadline=None)
@given(
    grid=st.sampled_from(GRID_CODES),
    start=st.integers(min_value=0, max_value=PAPER_TRACE_HOURS - 1),
    cluster=clusters(),
    per_job_cap=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_quota_contract(scheduler, mode, grid, start, cluster, per_job_cap, seed):
    executors, min_quota = cluster
    config = ExperimentConfig(
        scheduler=scheduler,
        grid=grid,
        num_executors=executors,
        mode=mode,
        per_job_cap=per_job_cap,
        executor_move_delay=0.5,
        workload=WORKLOAD,
        trace_start_step=start,
        cap_min_quota=min_quota,
        seed=seed,
    )
    result = run_experiment(config)
    assert_valid_schedule(result, workload_for(config))
    tasks = result.trace.tasks
    quotas = result.trace.quotas
    assert not any(task.preempted for task in tasks)

    for t in sorted({task.start for task in tasks}):
        running = in_flight(tasks, t)
        assert len(running) <= quota_in_force(quotas, t), t
        if mode == "kubernetes":
            per_job = Counter(task.job_id for task in running)
            assert max(per_job.values()) <= per_job_cap, t

    values = [q.quota for q in quotas]
    if scheduler in CAP_WRAPPED:
        assert all(min_quota <= v <= executors for v in values)
    elif scheduler == "greenhadoop":
        assert all(1 <= v <= executors for v in values)
    else:
        assert values == [executors]


@pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
def test_empty_cluster_never_idles(scheduler):
    """At every arrival and task completion, an idle cluster has no
    arrived, unfinished job, even through long high-carbon spans."""
    trace = CarbonTrace(([50.0] + [450.0] * 5) * 40, step_seconds=60.0)
    deferrals = 0
    for mode, executors, seed in itertools.product(MODES, (2, 6), (0, 1)):
        config = ExperimentConfig(
            scheduler=scheduler,
            num_executors=executors,
            mode=mode,
            per_job_cap=2,
            workload=WORKLOAD,
            gamma=0.9,
            cap_min_quota=1,
            gh_theta=0.9,
            seed=seed,
        )
        result = run_experiment(config, carbon_trace=trace)
        tasks = result.trace.tasks
        arrivals = {sub.job_id: sub.arrival_time for sub in workload_for(config)}
        finishes: dict[int, float] = {}
        for task in tasks:
            finishes[task.job_id] = max(finishes.get(task.job_id, 0.0), task.end)
        for t in sorted(set(arrivals.values()) | {task.end for task in tasks}):
            if not in_flight(tasks, t):
                waiting = [
                    job_id
                    for job_id, arrival in arrivals.items()
                    if arrival <= t < finishes[job_id]
                ]
                assert not waiting, (config, t)
        deferrals += result.trace.deferrals
    if scheduler == "pcaps":
        # The trace makes PCAPS defer: the property is not vacuous.
        assert deferrals > 0


@pytest.mark.parametrize("scheduler", CAP_WRAPPED + ("greenhadoop",))
def test_quota_drop_never_preempts(scheduler):
    """K=6, B=1: the quota falls from 6 to 1 at t=180 while six 150-s
    tasks run. They finish at full length, the next launch waits for the
    busy count to fall below the quota, and the rest wait for it to rise."""
    trace = CarbonTrace(([50.0] * 3 + [450.0] * 3) * 20, step_seconds=60.0)
    config = ExperimentConfig(
        scheduler=scheduler,
        num_executors=6,
        executor_move_delay=0.0,
        cap_min_quota=1,
        gh_theta=0.9,
    )
    job = JobSubmission(0.0, JobDAG([Stage(0, 24, 150.0)]), 0)
    result = simulation_for(config, trace).run([job])
    tasks = result.trace.tasks
    quotas = result.trace.quotas

    assert quota_in_force(quotas, 179.0) == 6
    assert quota_in_force(quotas, 180.0) == 1
    assert quota_in_force(quotas, 360.0) == 6
    running = in_flight(tasks, 180.0)
    assert len(running) == 6
    assert all(task.end == 300.0 and task.busy_time == 150.0 for task in running)
    assert not any(180.0 < task.start < 300.0 for task in tasks)
    launches = Counter(task.start for task in tasks)
    assert launches[300.0] == 1
    assert launches[360.0] == 5
    assert not any(task.preempted for task in tasks)
