"""Streaming schedule aggregation: O(1)-memory trace backend.

:class:`StreamingAggregator` is the second :class:`~repro.simulator.trace.
TraceAppender` backend. Where :class:`~repro.simulator.trace.ScheduleTrace`
materializes every record, the aggregator folds each one — once it becomes
final — into

- exactly-rounded running totals (busy time, carbon, JCT sums),
- fixed-width time **windows** of recent activity, kept in a bounded ring,
- running Welford moments of JCT and stretch,

so an open-ended service run (``repro stream``) holds constant memory no
matter how many jobs flow through it.

Determinism contract
--------------------
Folding uses :class:`ExactSum` — Shewchuk's exactly-rounded accumulation,
the streaming form of :func:`math.fsum`. An exactly-rounded sum depends only
on the *multiset* of addends, never on their order or grouping, so the
aggregator's summary metrics are bit-identical to the materialized path's
(:func:`~repro.campaign.store.result_metrics`) on any batch-sized trial:
``ScheduleTrace`` tallies the same per-record values with ``math.fsum`` over
the full arrays. The same fact lets the aggregator buffer busy intervals
and fold them in bulk (one ``integrate_many`` call and one
:meth:`ExactSum.extend` per accumulator) without moving a bit.
``tests/test_streaming_equivalence.py`` pins this over the pinned
fingerprint scenarios, against a per-record reference fold, and with
hypothesis property tests of order independence.
"""

from __future__ import annotations

import hashlib
import math
from collections import deque
from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from repro.carbon.trace import CarbonTrace
from repro.simulator.trace import HoldRecord, TaskRecord

#: Buffered intervals that force a fold, so the buffer stays O(1).
FLUSH_INTERVALS = 4096

# Buffer slots that are not a live window's index (those are >= 0).
_LATE = -1  # a task folding behind every open window: global totals only
_HOLD = -2  # a hold interval: the hold totals only


class ExactSum:
    """Exactly-rounded streaming summation (Shewchuk's algorithm).

    Maintains a list of non-overlapping partial sums whose total is the
    *exact* real-valued sum of everything added; :attr:`value` rounds that
    exact total once. Equivalent to :func:`math.fsum` over the same
    addends, which makes the result independent of addition order — the
    property the streaming-vs-materialized determinism contract rests on.
    :meth:`add` folds one addend, :meth:`extend` many at once; both keep
    the exact total, so any mix of the two gives the same :attr:`value`.
    The partials list stays tiny (tens of entries) for any realistic input,
    so this is O(1) memory per accumulator.
    """

    __slots__ = ("_partials",)

    def __init__(self, values: Iterable[float] = ()) -> None:
        self._partials: list[float] = []
        for value in values:
            self.add(value)

    def add(self, x: float) -> None:
        """Fold one addend into the exact running sum."""
        x = float(x)
        partials = self._partials
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]

    def extend(self, values: Iterable[float]) -> None:
        """Fold many addends at once; equal to :meth:`add` on each.

        ``math.fsum`` rounds the exact total of the partials plus the new
        addends; subtracting that rounding and summing again yields the
        next-smaller component, until the remainder is exactly zero. The
        components form an exact expansion of the total, so the running
        sum stays exact with every loop in C.
        """
        terms = self._partials + list(values)
        partials: list[float] = []
        total = math.fsum(terms)
        while total:
            partials.append(total)
            terms.append(-total)
            total = math.fsum(terms)
        partials.reverse()  # increasing magnitude, like add() keeps them
        self._partials = partials

    @property
    def value(self) -> float:
        """The exactly-rounded sum of everything added so far."""
        return math.fsum(self._partials)

    # -- pickling (``__slots__`` classes need explicit state) -------------
    def __getstate__(self) -> list[float]:
        return self._partials

    def __setstate__(self, state: list[float]) -> None:
        self._partials = list(state)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ExactSum({self.value!r})"


class Welford:
    """Running mean/variance (Welford's online algorithm), O(1) state."""

    __slots__ = ("count", "mean", "m2")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0

    def add(self, x: float) -> None:
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (x - self.mean)

    @property
    def variance(self) -> float:
        """Population variance of everything added (0.0 when empty)."""
        return self.m2 / self.count if self.count else 0.0

    @property
    def std(self) -> float:
        return math.sqrt(max(self.variance, 0.0))

    def as_dict(self) -> dict[str, float]:
        return {"count": self.count, "mean": self.mean, "std": self.std}

    def __getstate__(self) -> tuple[int, float, float]:
        return (self.count, self.mean, self.m2)

    def __setstate__(self, state: tuple[int, float, float]) -> None:
        self.count, self.mean, self.m2 = state


class _Window:
    """Aggregates for one fixed-width span of simulated time.

    Every field is a pure fold of the records whose *finalization time*
    (task end, job finish) lands in ``[start, end)`` — order-independent
    by construction, so window contents don't depend on append order.
    """

    __slots__ = (
        "index",
        "start",
        "end",
        "arrivals",
        "jobs_completed",
        "tasks_completed",
        "tasks_preempted",
        "busy",
        "carbon",
        "jct",
    )

    def __init__(self, index: int, start: float, end: float) -> None:
        self.index = index
        self.start = start
        self.end = end
        self.arrivals = 0
        self.jobs_completed = 0
        self.tasks_completed = 0
        self.tasks_preempted = 0
        self.busy = ExactSum()
        self.carbon = ExactSum()
        self.jct = ExactSum()

    def __getstate__(self) -> dict[str, Any]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state: dict[str, Any]) -> None:
        for name, value in state.items():
            setattr(self, name, value)

    def snapshot(self) -> dict[str, Any]:
        """Plain-dict view (what the ring buffer and reports keep)."""
        return {
            "index": self.index,
            "start": self.start,
            "end": self.end,
            "arrivals": self.arrivals,
            "jobs_completed": self.jobs_completed,
            "tasks_completed": self.tasks_completed,
            "tasks_preempted": self.tasks_preempted,
            "busy_s": self.busy.value,
            "carbon": self.carbon.value,
            "avg_jct": (
                self.jct.value / self.jobs_completed
                if self.jobs_completed
                else 0.0
            ),
        }


#: Summary keys shared (bit-identically) with the materialized path.
SUMMARY_KEYS = (
    "carbon_footprint",
    "ect",
    "avg_jct",
    "num_jobs",
    "total_busy_time",
    "utilization",
)


def metrics_fingerprint(metrics: dict[str, Any]) -> str:
    """SHA-256 over the exact ``repr`` of the shared summary metrics.

    The streaming analogue of the schedule fingerprint: computed over
    :data:`SUMMARY_KEYS` only, so a materialized
    :func:`~repro.campaign.store.result_metrics` dict and a
    :meth:`StreamingAggregator.summary_metrics` dict hash identically
    exactly when the shared metrics match bit for bit.
    """
    digest = hashlib.sha256()
    for key in SUMMARY_KEYS:
        digest.update(f"{key}={metrics[key]!r}\n".encode("utf-8"))
    return digest.hexdigest()


@dataclass
class StreamingAggregator:
    """Fold-as-you-go trace backend (:class:`TraceAppender` implementation).

    Each final task, truncated task, late fold and hold record is placed in
    its window (counts, makespan) one record at a time, but its busy
    interval goes to a buffer. :meth:`_flush` folds the buffer in bulk —
    one :meth:`~repro.carbon.trace.CarbonTrace.integrate_many` call, then
    one :meth:`ExactSum.extend` per accumulator — before any window opens
    or closes, before every read, before pickling (a checkpoint carries no
    buffer), and at :data:`FLUSH_INTERVALS` buffered intervals.

    Parameters
    ----------
    total_executors:
        Cluster size, for utilization (same meaning as on ScheduleTrace).
    carbon:
        The carbon trace used for ex-post integration of the buffered
        intervals. ``integrate_many`` performs the scalar
        :meth:`~repro.carbon.trace.CarbonTrace.integrate`'s floating-point
        operations for each element, and an exact sum ignores grouping,
        so folding in bulk gives the per-record fold's bits.
    idle_power_fraction:
        Idle-vs-busy power ratio for hold accounting (ScheduleTrace's).
    window_s:
        Width of the recent-history windows, in simulated seconds.
    ring_windows:
        How many closed windows to retain; older ones are evicted (their
        contribution to the global totals is already folded).
    """

    total_executors: int
    carbon: CarbonTrace
    idle_power_fraction: float = 0.3
    window_s: float = 600.0
    ring_windows: int = 168
    #: Open windows kept before eviction closes the oldest; folds arriving
    #: for a window older than everything open are counted globally and
    #: tallied as ``late_folds`` instead of reopening history.
    open_windows: int = 8

    deferrals: int = 0

    def __post_init__(self) -> None:
        if self.window_s <= 0:
            raise ValueError("window_s must be positive")
        if self.ring_windows <= 0 or self.open_windows <= 0:
            raise ValueError("ring_windows and open_windows must be positive")
        # TraceAppender bookkeeping ------------------------------------
        self._next_handle = 0
        self._open_tasks: dict[int, TaskRecord] = {}
        self.tasks_appended = 0
        self.tasks_completed = 0
        self.tasks_preempted = 0
        self.hold_count = 0
        self.quota_changes = 0
        self._last_quota: int | None = None
        # Exact global totals ------------------------------------------
        self._task_busy = ExactSum()
        self._task_carbon = ExactSum()
        self._hold_busy = ExactSum()
        self._hold_carbon = ExactSum()
        self._jct_sum = ExactSum()
        self._max_task_end = 0.0
        self._finish_max = 0.0
        # Job lifecycle ------------------------------------------------
        self.jobs_arrived = 0
        self.jobs_completed = 0
        self.jct_moments = Welford()
        self.stretch_moments = Welford()
        # Windows ------------------------------------------------------
        self._windows: dict[int, _Window] = {}
        self._ring: deque[dict[str, Any]] = deque(maxlen=self.ring_windows)
        self._closed_through = -1  # highest window index already closed
        self.late_folds = 0
        self.windows_closed = 0
        self._reset_buffer()

    def _reset_buffer(self) -> None:
        # Intervals awaiting a bulk fold: start, end, and a live window's
        # index or _LATE / _HOLD.
        self._buffer_starts: list[float] = []
        self._buffer_ends: list[float] = []
        self._buffer_slots: list[int] = []

    def __getstate__(self) -> dict[str, Any]:
        """Fold the buffer first, so a checkpoint carries no buffer."""
        self._flush()
        state = dict(self.__dict__)
        del state["_buffer_starts"], state["_buffer_ends"], state["_buffer_slots"]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._reset_buffer()

    # ------------------------------------------------------------------
    # TraceAppender surface (what the engine calls)
    # ------------------------------------------------------------------
    def add_task(self, record: TaskRecord) -> int:
        """Register a launch; the record is held open until it is final.

        Open records are bounded by the number of executors, never by job
        count — the one place the aggregator retains records at all.
        """
        handle = self._next_handle
        self._next_handle += 1
        self._open_tasks[handle] = record
        self.tasks_appended += 1
        return handle

    def task_done(self, handle: int) -> None:
        """The task's completion event was processed: fold and drop it."""
        self._fold_task(self._open_tasks.pop(handle))

    def truncate_task(self, handle: int, end: float) -> TaskRecord:
        """A disruption killed the task at ``end``: fold the truncated,
        preempted record immediately (mirrors ScheduleTrace.truncate_task).
        """
        record = self._open_tasks.pop(handle)
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
        self._fold_task(truncated)
        return truncated

    def add_hold(self, record: HoldRecord) -> None:
        """Hold intervals arrive complete (emitted at job completion)."""
        self.hold_count += 1
        self._buffer(record.start, record.end, _HOLD)

    def add_quota(self, time: float, quota: int) -> None:
        if self._last_quota != quota:
            self._last_quota = quota
            self.quota_changes += 1

    # ------------------------------------------------------------------
    # Job lifecycle (fed by the service runner / replay, not the engine)
    # ------------------------------------------------------------------
    def observe_arrival(self, job_id: int, arrival: float) -> None:
        self.jobs_arrived += 1
        self._window_at(arrival).arrivals += 1

    def observe_finish(
        self,
        job_id: int,
        arrival: float,
        finish: float,
        serial_work: float | None = None,
    ) -> None:
        """Fold one completed job: JCT, ECT, stretch, windowed counts.

        ``serial_work`` (the job's single-executor duration) feeds the
        stretch moment ``jct / serial_work``; omitted in replays where the
        DAG is no longer at hand.
        """
        jct = finish - arrival
        self.jobs_completed += 1
        self._jct_sum.add(jct)
        self.jct_moments.add(float(jct))
        if finish > self._finish_max:
            self._finish_max = finish
        if serial_work is not None and serial_work > 0:
            self.stretch_moments.add(float(jct) / float(serial_work))
        window = self._window_at(finish)
        window.jobs_completed += 1
        window.jct.add(jct)

    # ------------------------------------------------------------------
    # Folding and windows
    # ------------------------------------------------------------------
    def _fold_task(self, record: TaskRecord) -> None:
        end = record.end
        self.tasks_completed += 1
        if record.preempted:
            self.tasks_preempted += 1
        if end > self._max_task_end:
            self._max_task_end = end
        window = self._window_at(end)
        window.tasks_completed += 1
        if record.preempted:
            window.tasks_preempted += 1
        # Open windows all lie past _closed_through; anything else is a
        # throwaway window, so the interval counts globally only.
        index = window.index
        self._buffer(
            record.start, end, index if index > self._closed_through else _LATE
        )

    def _buffer(self, start: float, end: float, slot: int) -> None:
        self._buffer_starts.append(start)
        self._buffer_ends.append(end)
        self._buffer_slots.append(slot)
        if len(self._buffer_slots) >= FLUSH_INTERVALS:
            self._flush()

    def _flush(self) -> None:
        """Fold every buffered interval into its accumulators.

        Busy time is ``end - start`` and carbon the integral over
        ``[start, end]``, computed for all intervals at once; each
        accumulator then takes its share in one exact bulk sum.
        """
        if not self._buffer_slots:
            return
        starts = np.array(self._buffer_starts)
        ends = np.array(self._buffer_ends)
        slots = np.array(self._buffer_slots)
        self._reset_buffer()
        busy = ends - starts
        carbon = self.carbon.integrate_many(starts, ends)
        holds = slots == _HOLD
        if holds.any():
            self._hold_busy.extend(busy[holds].tolist())
            self._hold_carbon.extend(carbon[holds].tolist())
            tasks = ~holds
            busy, carbon, slots = busy[tasks], carbon[tasks], slots[tasks]
        self._task_busy.extend(busy.tolist())
        self._task_carbon.extend(carbon.tolist())
        for index in np.unique(slots[slots >= 0]).tolist():
            window = self._windows[index]
            mine = slots == index
            window.busy.extend(busy[mine].tolist())
            window.carbon.extend(carbon[mine].tolist())

    def _window_at(self, t: float) -> _Window:
        """The live window covering time ``t``, creating/evicting as needed.

        Folds are near-monotone in time (records fold when they become
        final), so only a handful of windows are ever open. A fold landing
        behind every open window — possible when retirement lags by more
        than ``open_windows`` spans — is counted in ``late_folds`` and
        absorbed by a throwaway window so global totals stay exact.
        """
        index = int(t // self.window_s)
        window = self._windows.get(index)
        if window is not None:
            return window
        if index <= self._closed_through:
            self.late_folds += 1
            return _Window(
                index=index,
                start=index * self.window_s,
                end=(index + 1) * self.window_s,
            )
        self._flush()
        window = _Window(
            index=index,
            start=index * self.window_s,
            end=(index + 1) * self.window_s,
        )
        self._windows[index] = window
        if len(self._windows) > self.open_windows:
            oldest = min(self._windows)
            self._close_window(oldest)
        return window

    def _close_window(self, index: int) -> None:
        window = self._windows.pop(index)
        self._ring.append(window.snapshot())
        self._closed_through = max(self._closed_through, index)
        self.windows_closed += 1

    def flush_windows(self) -> None:
        """Close every open window into the ring (drain/report path)."""
        self._flush()
        for index in sorted(self._windows):
            self._close_window(index)

    def finalize(self) -> None:
        """Fold any still-open task records (early-stopped runs only).

        Idempotent; after a full drain every task already completed so
        this only folds the buffer.
        """
        for handle in sorted(self._open_tasks):
            self._fold_task(self._open_tasks.pop(handle))
        self._flush()

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    @property
    def makespan(self) -> float:
        """Latest folded task end (mirrors ScheduleTrace.makespan)."""
        return self._max_task_end

    @property
    def open_task_count(self) -> int:
        return len(self._open_tasks)

    def total_busy_time(self) -> float:
        """Occupancy executor-seconds — holds when present, else tasks,
        mirroring ScheduleTrace's occupancy semantics bit for bit."""
        self._flush()
        if self.hold_count:
            return self._hold_busy.value
        return self._task_busy.value

    def carbon_footprint(self) -> float:
        """Ex-post carbon tally, mirroring ScheduleTrace.carbon_footprint."""
        self._flush()
        task_carbon = self._task_carbon.value
        if not self.hold_count:
            return task_carbon
        idle_carbon = max(self._hold_carbon.value - task_carbon, 0.0)
        return task_carbon + self.idle_power_fraction * idle_carbon

    def summary_metrics(self) -> dict[str, Any]:
        """The shared summary metrics (:data:`SUMMARY_KEYS`).

        Bit-identical to the same keys of
        :func:`~repro.campaign.store.result_metrics` on any batch-sized
        trial — the streaming determinism contract.
        """
        ect = self._finish_max if self.jobs_completed else 0.0
        busy = self.total_busy_time()
        utilization = (
            busy / (ect * self.total_executors) if ect > 0 else 0.0
        )
        return {
            "carbon_footprint": self.carbon_footprint(),
            "ect": ect,
            "avg_jct": (
                self._jct_sum.value / self.jobs_completed
                if self.jobs_completed
                else 0.0
            ),
            "num_jobs": self.jobs_completed,
            "total_busy_time": busy,
            "utilization": utilization,
        }

    def metrics_fingerprint(self) -> str:
        """SHA-256 of the summary metrics (see :func:`metrics_fingerprint`)."""
        return metrics_fingerprint(self.summary_metrics())

    def recent_windows(self) -> list[dict[str, Any]]:
        """Closed-window snapshots (oldest first), then open windows."""
        self._flush()
        open_snapshots = [
            self._windows[index].snapshot() for index in sorted(self._windows)
        ]
        return list(self._ring) + open_snapshots


def replay_result(
    result: Any,
    window_s: float = 600.0,
    ring_windows: int = 168,
) -> StreamingAggregator:
    """Feed a materialized :class:`ExperimentResult` through the aggregator.

    The equivalence harness: every task/hold/quota record and every job
    arrival/finish of the finished experiment is replayed as if it had
    streamed in, and the returned aggregator's :meth:`summary_metrics`
    must match :func:`~repro.campaign.store.result_metrics` bit for bit.
    """
    aggregator = StreamingAggregator(
        total_executors=result.trace.total_executors,
        carbon=result.carbon_trace,
        idle_power_fraction=result.trace.idle_power_fraction,
        window_s=window_s,
        ring_windows=ring_windows,
    )
    for job_id, arrival in result.arrivals.items():
        aggregator.observe_arrival(job_id, arrival)
    for record in result.trace.tasks:
        aggregator.task_done(aggregator.add_task(record))
    for record in result.trace.holds:
        aggregator.add_hold(record)
    for quota in result.trace.quotas:
        aggregator.add_quota(quota.time, quota.quota)
    aggregator.deferrals = result.trace.deferrals
    for job_id, finish in result.finishes.items():
        aggregator.observe_finish(job_id, result.arrivals[job_id], finish)
    return aggregator


# Re-exported names kept together for ``from repro.simulator.streaming
# import *``-style discovery in docs.
__all__ = [
    "ExactSum",
    "StreamingAggregator",
    "SUMMARY_KEYS",
    "Welford",
    "metrics_fingerprint",
    "replay_result",
]
