"""Unit tests for schedule traces and derived series."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.simulator.trace import (
    HoldRecord,
    ScheduleTrace,
    TaskRecord,
    busy_executor_series,
    executor_timeline,
    jobs_in_system_series,
)

from conftest import make_trace


def task(job=0, stage=0, index=0, executor=0, start=0.0, move=0.0, dur=10.0):
    return TaskRecord(
        job_id=job,
        stage_id=stage,
        task_index=index,
        executor_id=executor,
        start=start,
        work_start=start + move,
        end=start + move + dur,
    )


class TestRecords:
    def test_task_validation(self):
        with pytest.raises(ValueError):
            TaskRecord(0, 0, 0, 0, start=5.0, work_start=4.0, end=10.0)
        with pytest.raises(ValueError):
            TaskRecord(0, 0, 0, 0, start=0.0, work_start=5.0, end=4.0)

    def test_task_properties(self):
        t = task(start=2.0, move=1.0, dur=3.0)
        assert t.busy_time == pytest.approx(4.0)
        assert t.moved

    def test_hold_validation(self):
        with pytest.raises(ValueError):
            HoldRecord(job_id=0, executor_id=0, start=5.0, end=4.0)

    @pytest.mark.parametrize(
        "fields",
        [(0, 0, 0, 0, 0.0, 0.0, 0.0), (3, 7, 11, 2, 5.5, 6.0, 17.25)],
    )
    def test_launched_equals_the_dataclass_constructor(self, fields):
        fast, plain = TaskRecord.launched(*fields), TaskRecord(*fields)
        assert fast == plain
        assert hash(fast) == hash(plain)
        assert repr(fast) == repr(plain)
        assert not fast.preempted
        restored = pickle.loads(pickle.dumps(fast))
        assert restored == plain and repr(restored) == repr(plain)
        assert not hasattr(fast, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            fast.end = 1.0
        assert dataclasses.replace(fast, preempted=True) != plain

    def test_launched_validation(self):
        with pytest.raises(ValueError):
            TaskRecord.launched(0, 0, 0, 0, 5.0, 4.0, 10.0)
        with pytest.raises(ValueError):
            TaskRecord.launched(0, 0, 0, 0, 0.0, 5.0, 4.0)


class TestCarbonAccounting:
    def test_footprint_constant_carbon(self):
        trace = ScheduleTrace(total_executors=2)
        trace.add_task(task(dur=10.0))
        trace.add_task(task(executor=1, dur=10.0))
        carbon = make_trace([100.0] * 10)
        assert trace.carbon_footprint(carbon) == pytest.approx(2000.0)

    def test_footprint_weighted_by_intensity(self):
        trace = ScheduleTrace(total_executors=1)
        trace.add_task(task(start=0.0, dur=120.0))  # spans two 60 s steps
        carbon = make_trace([100.0, 300.0, 100.0])
        assert trace.carbon_footprint(carbon) == pytest.approx(
            60 * 100 + 60 * 300
        )

    def test_idle_hold_scaled_by_idle_power(self):
        trace = ScheduleTrace(total_executors=1, idle_power_fraction=0.5)
        trace.add_task(task(dur=10.0))
        trace.add_hold(HoldRecord(job_id=0, executor_id=0, start=0.0, end=30.0))
        carbon = make_trace([100.0] * 10)
        # 10 s busy at full power + 20 s idle at half power.
        assert trace.carbon_footprint(carbon) == pytest.approx(
            10 * 100 + 0.5 * 20 * 100
        )

    def test_per_job_footprints_sum_to_total(self):
        trace = ScheduleTrace(total_executors=2)
        trace.add_task(task(job=0, dur=10.0))
        trace.add_task(task(job=1, executor=1, start=5.0, dur=20.0))
        carbon = make_trace([100.0, 200.0] * 5)
        per_job = trace.job_carbon_footprints(carbon)
        assert sum(per_job.values()) == pytest.approx(
            trace.carbon_footprint(carbon)
        )

    def test_per_job_footprints_with_holds(self):
        trace = ScheduleTrace(total_executors=1, idle_power_fraction=0.3)
        trace.add_task(task(job=0, dur=10.0))
        trace.add_hold(HoldRecord(job_id=0, executor_id=0, start=0.0, end=20.0))
        carbon = make_trace([100.0] * 10)
        per_job = trace.job_carbon_footprints(carbon)
        assert per_job[0] == pytest.approx(trace.carbon_footprint(carbon))


class TestSeries:
    def test_busy_series_counts_overlaps(self):
        trace = ScheduleTrace(total_executors=2)
        trace.add_task(task(executor=0, start=0.0, dur=10.0))
        trace.add_task(task(executor=1, start=5.0, dur=10.0))
        times, counts = busy_executor_series(trace, resolution=1.0)
        assert counts.max() == 2
        assert counts[2] == 1  # only the first task at t=2
        assert counts[7] == 2

    def test_busy_series_uses_holds_when_present(self):
        trace = ScheduleTrace(total_executors=1)
        trace.add_task(task(dur=5.0))
        trace.add_hold(HoldRecord(job_id=0, executor_id=0, start=0.0, end=50.0))
        _, counts = busy_executor_series(trace, t_end=50.0, resolution=1.0)
        assert counts[30] == 1  # held counts as occupied

    def test_busy_series_rejects_bad_resolution(self):
        with pytest.raises(ValueError):
            busy_executor_series(ScheduleTrace(total_executors=1), resolution=0)

    def test_jobs_in_system(self):
        arrivals = {0: 0.0, 1: 5.0}
        finishes = {0: 10.0, 1: 20.0}
        times, counts = jobs_in_system_series(arrivals, finishes, resolution=1.0)
        assert counts[2] == 1
        assert counts[7] == 2
        assert counts[15] == 1

    def test_executor_timeline_marks_jobs_and_idle(self):
        trace = ScheduleTrace(total_executors=2)
        trace.add_task(task(job=3, executor=0, start=0.0, dur=10.0))
        grid = executor_timeline(trace, resolution=1.0)
        assert grid.shape[0] == 2
        assert grid[0, 5] == 3
        assert grid[1, 5] == -1  # idle executor

    def test_counts_are_integers(self):
        trace = ScheduleTrace(total_executors=2)
        trace.add_task(task(executor=0, start=0.0, dur=10.0))
        _, counts = busy_executor_series(trace, resolution=1.0)
        assert np.issubdtype(counts.dtype, np.integer)
        _, job_counts = jobs_in_system_series({0: 0.0}, {0: 5.0}, resolution=1.0)
        assert np.issubdtype(job_counts.dtype, np.integer)

    def test_empty_trace_series(self):
        trace = ScheduleTrace(total_executors=2)
        times, counts = busy_executor_series(trace, resolution=1.0)
        assert counts.sum() == 0 and len(times) == len(counts)

    def test_executor_timeline_covers_holds_past_last_task(self):
        """Hold intervals ending after the task makespan must not be clipped."""
        trace = ScheduleTrace(total_executors=1)
        trace.add_task(task(dur=5.0))
        trace.add_hold(HoldRecord(job_id=0, executor_id=0, start=0.0, end=40.0))
        grid = executor_timeline(trace, resolution=1.0)
        assert grid.shape[1] >= 40
        assert grid[0, 39] == 0  # still held (and drawing power) at t=39

    def test_executor_timeline_empty_trace(self):
        grid = executor_timeline(ScheduleTrace(total_executors=3))
        assert grid.shape[0] == 3
        assert (grid == -1).all()

    def test_executor_timeline_rejects_bad_resolution(self):
        with pytest.raises(ValueError):
            executor_timeline(ScheduleTrace(total_executors=1), resolution=0)

    def test_quota_dedup(self):
        trace = ScheduleTrace(total_executors=1)
        trace.add_quota(0.0, 5)
        trace.add_quota(1.0, 5)
        trace.add_quota(2.0, 3)
        assert [q.quota for q in trace.quotas] == [5, 3]

    def test_makespan(self):
        trace = ScheduleTrace(total_executors=1)
        trace.add_task(task(start=3.0, dur=4.0))
        assert trace.makespan == pytest.approx(7.0)
        assert ScheduleTrace(total_executors=1).makespan == 0.0
