"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Callable

import pytest

from repro.carbon.api import CarbonIntensityAPI
from repro.carbon.trace import CarbonTrace
from repro.dag.graph import JobDAG, Stage
from repro.dag.metrics import descendant_work, remaining_work
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.simulator.engine import ClusterConfig, Simulation
from repro.workloads.arrivals import JobSubmission
from repro.workloads.batch import WorkloadSpec


def make_trace(
    values, step_seconds: float = 60.0, name: str = "test"
) -> CarbonTrace:
    return CarbonTrace(values, step_seconds=step_seconds, name=name)


@pytest.fixture
def flat_trace() -> CarbonTrace:
    """Constant carbon intensity: carbon-aware logic should be a no-op."""
    return make_trace([100.0] * 500)


@pytest.fixture
def square_trace() -> CarbonTrace:
    """Alternating 12-step low (50) / 12-step high (450) periods."""
    block = [50.0] * 12 + [450.0] * 12
    return make_trace(block * 40)


@pytest.fixture
def tiny_dag() -> JobDAG:
    """A 4-stage diamond with multi-task stages."""
    return JobDAG(
        [
            Stage(0, 2, 5.0, name="root"),
            Stage(1, 3, 4.0, parents=(0,), name="left"),
            Stage(2, 1, 10.0, parents=(0,), name="right"),
            Stage(3, 2, 3.0, parents=(1, 2), name="sink"),
        ],
        name="diamond",
    )


def single_job(dag: JobDAG, arrival: float = 0.0) -> list[JobSubmission]:
    return [JobSubmission(arrival_time=arrival, dag=dag, job_id=0)]


def staggered_jobs(dags, gap: float = 10.0) -> list[JobSubmission]:
    return [
        JobSubmission(arrival_time=i * gap, dag=dag, job_id=i)
        for i, dag in enumerate(dags)
    ]


def run_sim(
    scheduler,
    submissions,
    trace: CarbonTrace,
    num_executors: int = 4,
    provisioner=None,
    move_delay: float = 0.0,
    per_job_cap: int | None = None,
    **kwargs,
):
    """Run a small simulation with sensible test defaults."""
    config = ClusterConfig(
        num_executors=num_executors,
        executor_move_delay=move_delay,
        per_job_executor_cap=per_job_cap,
        mode="kubernetes" if per_job_cap is not None else "standalone",
    )
    sim = Simulation(
        config=config,
        scheduler=scheduler,
        carbon_api=CarbonIntensityAPI(trace),
        provisioner=provisioner,
        **kwargs,
    )
    return sim.run(submissions)


def assert_valid_schedule(result, submissions) -> None:
    """Invariants every legal schedule satisfies.

    - every task of every stage ran exactly once;
    - precedence: no task of a stage starts before all parent-stage tasks end;
    - no executor runs two tasks at once;
    - tasks start no earlier than their job's arrival.
    """
    by_job: dict[int, list] = {}
    for task in result.trace.tasks:
        by_job.setdefault(task.job_id, []).append(task)
    assert set(by_job) == {s.job_id for s in submissions}

    for sub in submissions:
        tasks = by_job[sub.job_id]
        per_stage: dict[int, list] = {}
        for task in tasks:
            per_stage.setdefault(task.stage_id, []).append(task)
        assert set(per_stage) == set(sub.dag.stage_ids())
        for sid, stage_tasks in per_stage.items():
            stage = sub.dag.stage(sid)
            assert len(stage_tasks) == stage.num_tasks
            indices = sorted(t.task_index for t in stage_tasks)
            assert indices == list(range(stage.num_tasks))
            for t in stage_tasks:
                assert t.start >= sub.arrival_time
                assert t.end - t.work_start == pytest.approx(stage.task_duration)
        # Precedence between stages.
        stage_end = {
            sid: max(t.end for t in stage_tasks)
            for sid, stage_tasks in per_stage.items()
        }
        stage_start = {
            sid: min(t.work_start for t in stage_tasks)
            for sid, stage_tasks in per_stage.items()
        }
        for sid in sub.dag.stage_ids():
            for parent in sub.dag.stage(sid).parents:
                assert stage_start[sid] >= stage_end[parent] - 1e-9

    # No executor overlap.
    per_executor: dict[int, list] = {}
    for task in result.trace.tasks:
        per_executor.setdefault(task.executor_id, []).append(task)
    for tasks in per_executor.values():
        tasks.sort(key=lambda t: t.start)
        for earlier, later in zip(tasks, tasks[1:]):
            assert later.start >= earlier.end - 1e-9


def total_work(submissions) -> float:
    return sum(s.dag.total_work for s in submissions)


def reference_bottleneck_scores(dag: JobDAG, completed) -> dict[int, float]:
    """``repro.dag.metrics.bottleneck_scores`` without its caches, the
    reference they must match bit for bit: every call walks the whole DAG
    for the longest chains through incomplete stages, takes the maximum
    over all stages, and sweeps each stage's descendants for its gated
    work."""
    done = set(completed)
    remaining = remaining_work(dag, done)
    if remaining <= 0:
        return {}
    downstream = {}
    for sid in reversed(dag.topological_order()):
        stage = dag.stage(sid)
        own = 0.0 if sid in done else stage.task_duration
        below = max((downstream[c] for c in dag.children(sid)), default=0.0)
        downstream[sid] = own + below
    max_chain = max(downstream.values(), default=0.0)
    scores = {}
    for sid in dag.stage_ids():
        if sid in done:
            continue
        gated = descendant_work(dag, sid)
        chain = downstream[sid]
        scores[sid] = 0.5 * (gated / remaining) + 0.5 * (
            chain / max_chain if max_chain > 0 else 0.0
        )
    return scores


def pinned_quality_changes(
    pin_name: str, group_key: str, config_for: Callable[[str], dict]
) -> dict[str, tuple[float, float]]:
    """Per group of a quality pin: the paired mean relative change of
    ``(carbon, ECT)`` from the pinned per-seed values to this code's.

    A pin under ``data/`` holds a config (grid, mode, executors, workload
    and seeds) and, under ``group_key``, one ``[carbon, ECT]`` row per
    seed for each group, recorded with the code it retired. A group is a
    scheduler or a γ; ``config_for`` maps its key to the
    :class:`ExperimentConfig` fields that select it.
    """
    pin = json.loads((Path(__file__).parent / "data" / pin_name).read_text())
    base = pin["config"]
    out = {}
    for group, rows in pin[group_key].items():
        carbon, ect = [], []
        for seed, (old_carbon, old_ect) in zip(base["seeds"], rows):
            result = run_experiment(
                ExperimentConfig(
                    grid=base["grid"], mode=base["mode"],
                    num_executors=base["num_executors"],
                    workload=WorkloadSpec(**base["workload"]),
                    seed=seed, **config_for(group),
                )
            )
            carbon.append(result.carbon_footprint / old_carbon - 1.0)
            ect.append(result.ect / old_ect - 1.0)
        out[group] = (statistics.fmean(carbon), statistics.fmean(ect))
    return out


# Re-exported from the shared differential-testing harness so older
# suites' ``from conftest import schedule_fingerprint`` keeps working.
from fingerprint_scenarios import schedule_fingerprint  # noqa: E402,F401
