"""Schedule traces: the raw record every metric is computed from.

The paper's simulator measures carbon "ex post facto ... once an experiment
is complete, existing computations (e.g., executor times) and a carbon trace
are used to tally the footprint" (Section 5.2). A :class:`ScheduleTrace` is
that record: one :class:`TaskRecord` per task placement, plus quota-change
events, from which carbon, utilization plots (Fig. 6), and jobs-in-system
plots (Fig. 15) are all derived.

The engine writes records through the :class:`TraceAppender` contract, which
has two backends:

- :class:`ScheduleTrace` (here, the default) materializes every record, so
  any metric or plot can be derived after the fact;
- :class:`~repro.simulator.streaming.StreamingAggregator` folds each record
  into O(1) running aggregates for open-ended service-mode runs
  (``repro stream``), where materializing 10⁵–10⁶ jobs of history is the
  memory bottleneck.

Summary tallies (:meth:`ScheduleTrace.carbon_footprint`,
:meth:`ScheduleTrace.total_busy_time`) use exactly-rounded summation
(:func:`math.fsum`), which is order-independent — the property that lets the
streaming backend fold records one at a time and still reproduce the
materialized numbers bit for bit (see ``docs/streaming.md``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from repro.carbon.trace import CarbonTrace


@dataclass(frozen=True, slots=True)
class TaskRecord:
    """One task execution on one executor.

    ``start`` is when the executor was committed (including any move delay);
    ``work_start`` is when useful work began; ``end`` is task completion.
    The executor is busy over ``[start, end]``.

    Slotted: a run holds one record per task placement, and the engine
    creates them through :meth:`launched`.
    """

    job_id: int
    stage_id: int
    task_index: int
    executor_id: int
    start: float
    work_start: float
    end: float
    #: True when the task was killed mid-flight by a capacity disruption
    #: (``SimulationStepper.set_capacity``). The interval ``[start, end]``
    #: is the busy time actually consumed — wasted work, since the task
    #: relaunches from scratch and re-appears as a later record.
    preempted: bool = False

    def __post_init__(self) -> None:
        if not (self.start <= self.work_start <= self.end):
            raise ValueError("need start <= work_start <= end")

    @classmethod
    def launched(
        cls,
        job_id: int,
        stage_id: int,
        task_index: int,
        executor_id: int,
        start: float,
        work_start: float,
        end: float,
    ) -> "TaskRecord":
        """The record of a task launched now: equal to the plain
        constructor's, built without its frozen ``__setattr__`` path."""
        if not (start <= work_start <= end):
            raise ValueError("need start <= work_start <= end")
        record = object.__new__(cls)
        _set_job_id(record, job_id)
        _set_stage_id(record, stage_id)
        _set_task_index(record, task_index)
        _set_executor_id(record, executor_id)
        _set_start(record, start)
        _set_work_start(record, work_start)
        _set_end(record, end)
        _set_preempted(record, False)
        return record

    @property
    def busy_time(self) -> float:
        return self.end - self.start

    @property
    def moved(self) -> bool:
        return self.work_start > self.start


# The slot descriptors' setters, for TaskRecord.launched.
(
    _set_job_id,
    _set_stage_id,
    _set_task_index,
    _set_executor_id,
    _set_start,
    _set_work_start,
    _set_end,
    _set_preempted,
) = (TaskRecord.__dict__[name].__set__ for name in TaskRecord.__slots__)


@dataclass(frozen=True)
class HoldRecord:
    """An executor bound to a job from first grant to job completion.

    Only produced under Spark-standalone hoarding semantics
    (``StageScheduler.holds_executors``). The executor draws power — and
    counts as occupied in utilization plots — for the whole interval, even
    while idling between that job's stages.
    """

    job_id: int
    executor_id: int
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError("need start <= end")

    @property
    def busy_time(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class QuotaRecord:
    """A provisioning decision: quota value effective from ``time``."""

    time: float
    quota: int


#: Anything executors draw power over: a task placement or a hold interval.
#: Both record types expose ``job_id``, ``executor_id``, ``start``, ``end``,
#: and ``busy_time``.
OccupancyRecord = TaskRecord | HoldRecord


@runtime_checkable
class TraceAppender(Protocol):
    """What the engine needs from a trace backend.

    The engine never reads records back during a run — it only appends —
    so a backend is free to materialize (:class:`ScheduleTrace`) or fold
    and discard (:class:`~repro.simulator.streaming.StreamingAggregator`).
    The contract:

    - :meth:`add_task` is called at *launch* with the projected record
      (``end`` already computed) and returns an opaque integer handle;
    - :meth:`task_done` is called with that handle when the task's
      completion event is processed — from then on the record is final
      and a streaming backend may fold and drop it;
    - :meth:`truncate_task` is called with the handle instead when a
      capacity disruption kills the task mid-flight; the truncated,
      ``preempted=True`` record is final immediately;
    - :meth:`add_hold` / :meth:`add_quota` records are final on append;
    - ``deferrals`` is a plain counter the engine increments in place.
    """

    total_executors: int
    deferrals: int
    idle_power_fraction: float

    def add_task(self, record: TaskRecord) -> int: ...

    def task_done(self, handle: int) -> None: ...

    def truncate_task(self, handle: int, end: float) -> TaskRecord: ...

    def add_hold(self, record: HoldRecord) -> None: ...

    def add_quota(self, time: float, quota: int) -> None: ...


@dataclass
class _IntervalArrays:
    """Array-backed view of a record list for vectorized accounting."""

    count: int
    job_ids: np.ndarray
    starts: np.ndarray
    ends: np.ndarray


def _as_arrays(records: list[TaskRecord] | list[HoldRecord]) -> _IntervalArrays:
    n = len(records)
    return _IntervalArrays(
        count=n,
        job_ids=np.fromiter((r.job_id for r in records), dtype=np.int64, count=n),
        starts=np.fromiter((r.start for r in records), dtype=float, count=n),
        ends=np.fromiter((r.end for r in records), dtype=float, count=n),
    )


def _per_job_sums(arrays: _IntervalArrays, weights: np.ndarray) -> dict[int, float]:
    """Sum ``weights`` per job id, as a plain dict."""
    uniq, inverse = np.unique(arrays.job_ids, return_inverse=True)
    sums = np.bincount(inverse, weights=weights, minlength=len(uniq))
    return {int(job_id): float(total) for job_id, total in zip(uniq, sums)}


@dataclass
class ScheduleTrace:
    """Complete record of one simulated experiment.

    Records are append-only; the ex-post accounting converts them to numpy
    arrays once (cached per record count) so carbon tallies and utilization
    series are vectorized instead of per-record Python loops.
    """

    total_executors: int
    tasks: list[TaskRecord] = field(default_factory=list)
    holds: list[HoldRecord] = field(default_factory=list)
    quotas: list[QuotaRecord] = field(default_factory=list)
    deferrals: int = 0  # scheduling events where a sampled stage was deferred
    #: Power drawn by an idle-but-bound executor relative to a busy one.
    #: Idle servers draw a sizeable fraction of peak power; 0.3 calibrates
    #: the simulator so Decima's carbon advantage over hoarding FIFO matches
    #: the paper's Table 3. Only hold time beyond task time is scaled.
    idle_power_fraction: float = 0.3
    _task_arrays: _IntervalArrays | None = field(
        default=None, repr=False, compare=False
    )
    _hold_arrays: _IntervalArrays | None = field(
        default=None, repr=False, compare=False
    )

    def add_task(self, record: TaskRecord) -> int:
        """Append one launch record; the returned handle is its list index."""
        self.tasks.append(record)
        return len(self.tasks) - 1

    def task_done(self, handle: int) -> None:
        """Completion notification (:class:`TraceAppender`): records are
        already final here, so nothing to do."""

    def truncate_task(self, index: int, end: float) -> TaskRecord:
        """Cut a launched task short at ``end`` and mark it preempted.

        Called by the engine when a capacity disruption kills a running
        task: the executor was busy (and accrued carbon) over
        ``[start, end]``, but the work is lost. Invalidates the cached
        interval arrays — this is the one place records mutate in place
        without the count changing.
        """
        record = self.tasks[index]
        truncated = TaskRecord(
            job_id=record.job_id,
            stage_id=record.stage_id,
            task_index=record.task_index,
            executor_id=record.executor_id,
            start=record.start,
            work_start=min(record.work_start, end),
            end=end,
            preempted=True,
        )
        self.tasks[index] = truncated
        self._task_arrays = None
        return truncated

    def preempted_tasks(self) -> list[TaskRecord]:
        """Records of tasks killed mid-flight by capacity disruptions."""
        return [t for t in self.tasks if t.preempted]

    def wasted_time(self) -> float:
        """Executor-seconds consumed by preempted (re-run) tasks."""
        return sum(t.busy_time for t in self.tasks if t.preempted)

    def add_hold(self, record: HoldRecord) -> None:
        self.holds.append(record)

    def add_quota(self, time: float, quota: int) -> None:
        if not self.quotas or self.quotas[-1].quota != quota:
            self.quotas.append(QuotaRecord(time=time, quota=quota))

    def task_arrays(self) -> _IntervalArrays:
        """Array-backed task records (rebuilt only when tasks were added)."""
        if self._task_arrays is None or self._task_arrays.count != len(self.tasks):
            self._task_arrays = _as_arrays(self.tasks)
        return self._task_arrays

    def hold_arrays(self) -> _IntervalArrays:
        """Array-backed hold records (rebuilt only when holds were added)."""
        if self._hold_arrays is None or self._hold_arrays.count != len(self.holds):
            self._hold_arrays = _as_arrays(self.holds)
        return self._hold_arrays

    def occupancy_intervals(self) -> list[OccupancyRecord]:
        """The intervals during which executors draw power.

        Under hoarding semantics these are the hold intervals (idle-but-
        bound time included); otherwise each task interval stands alone.
        """
        return self.holds if self.holds else self.tasks

    def occupancy_arrays(self) -> _IntervalArrays:
        return self.hold_arrays() if self.holds else self.task_arrays()

    @property
    def makespan(self) -> float:
        tasks = self.task_arrays()
        return float(tasks.ends.max()) if tasks.count else 0.0

    def total_busy_time(self) -> float:
        """Executor-seconds of occupancy (the energy proxy).

        Exactly-rounded (order-independent) summation, so the streaming
        backend reproduces this number from per-record folds bit for bit.
        """
        occupancy = self.occupancy_arrays()
        return math.fsum(occupancy.ends - occupancy.starts)

    def total_task_time(self) -> float:
        """Executor-seconds actually spent running tasks (incl. moves)."""
        tasks = self.task_arrays()
        return math.fsum(tasks.ends - tasks.starts)

    def carbon_footprint(self, carbon: CarbonTrace) -> float:
        """Ex-post carbon tally.

        Busy (task) executor-time is weighted by ``c(t)`` at full power;
        idle-but-bound time (hold intervals minus task intervals, present
        only under hoarding semantics) is weighted at
        ``idle_power_fraction``. Units: gCO2eq * executor-seconds / kWh;
        with constant per-executor power, ratios between schedulers equal
        the paper's normalized carbon-footprint ratios.
        """
        tasks = self.task_arrays()
        task_carbon = math.fsum(
            carbon.integrate_many(tasks.starts, tasks.ends)
        )
        if not self.holds:
            return task_carbon
        holds = self.hold_arrays()
        hold_carbon = math.fsum(
            carbon.integrate_many(holds.starts, holds.ends)
        )
        idle_carbon = max(hold_carbon - task_carbon, 0.0)
        return task_carbon + self.idle_power_fraction * idle_carbon

    def job_carbon_footprints(self, carbon: CarbonTrace) -> dict[int, float]:
        """Per-job footprints, for the per-job analysis of Fig. 9."""
        tasks = self.task_arrays()
        task_c = _per_job_sums(
            tasks, carbon.integrate_many(tasks.starts, tasks.ends)
        )
        if not self.holds:
            return task_c
        holds = self.hold_arrays()
        hold_c = _per_job_sums(
            holds, carbon.integrate_many(holds.starts, holds.ends)
        )
        return {
            job_id: task_c.get(job_id, 0.0)
            + self.idle_power_fraction
            * max(hold_c.get(job_id, 0.0) - task_c.get(job_id, 0.0), 0.0)
            for job_id in set(task_c) | set(hold_c)
        }


def _interval_counts(
    times: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> np.ndarray:
    """How many ``[start, end]`` intervals contain each sample time.

    Vectorized sweep: +1 at each interval's first covered sample, -1 just
    past its last, then a prefix sum. Counts are integers, so the result
    dtype is integral (not float).
    """
    n = len(times)
    lo = np.searchsorted(times, starts, side="left")
    hi = np.searchsorted(times, ends, side="right")
    delta = np.bincount(lo, minlength=n + 1).astype(np.int64)
    delta -= np.bincount(hi, minlength=n + 1)
    return np.cumsum(delta[:n])


def busy_executor_series(
    trace: ScheduleTrace, t_end: float | None = None, resolution: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Time series of busy-executor counts (the Fig. 6 / Fig. 15 plots).

    Returns ``(times, counts)`` sampled every ``resolution`` seconds; counts
    at time ``t`` are the number of task intervals containing ``t``.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    horizon = t_end if t_end is not None else trace.makespan
    times = np.arange(0.0, horizon + resolution, resolution)
    occupancy = trace.occupancy_arrays()
    return times, _interval_counts(times, occupancy.starts, occupancy.ends)


def jobs_in_system_series(
    arrivals: dict[int, float],
    finishes: dict[int, float],
    t_end: float | None = None,
    resolution: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Time series of the number of jobs in the system (Fig. 15, right)."""
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    horizon = t_end if t_end is not None else max(finishes.values(), default=0.0)
    times = np.arange(0.0, horizon + resolution, resolution)
    n = len(arrivals)
    starts = np.fromiter(arrivals.values(), dtype=float, count=n)
    ends = np.fromiter(
        (finishes.get(job_id, horizon) for job_id in arrivals),
        dtype=float,
        count=n,
    )
    return times, _interval_counts(times, starts, ends)


def executor_timeline(
    trace: ScheduleTrace, resolution: float = 1.0
) -> np.ndarray:
    """Per-executor occupancy matrix for Fig. 6-style visualizations.

    Entry ``[e, i]`` is the job id occupying executor ``e`` during the
    ``i``-th time bucket, or ``-1`` when idle. The horizon covers every
    occupancy interval — under hoarding semantics hold intervals can end
    after the last task does, so sizing buckets off the task makespan alone
    would silently clip them.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    intervals: list[OccupancyRecord] = trace.occupancy_intervals()
    horizon = max((record.end for record in intervals), default=0.0)
    num_buckets = int(np.ceil(horizon / resolution)) + 1
    grid = np.full((trace.total_executors, num_buckets), -1, dtype=int)
    for record in intervals:
        lo = int(record.start // resolution)
        hi = int(np.ceil(record.end / resolution))
        grid[record.executor_id, lo:hi] = record.job_id
    return grid
