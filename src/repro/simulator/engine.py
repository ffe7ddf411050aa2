"""The event-driven simulation engine.

Scheduling events occur on job arrivals, task completions, and carbon
intensity changes (Algorithm 1, line 2 defines exactly this event set). At
each event the engine runs an *assignment pass*: it computes the current
provisioning quota, then repeatedly asks the stage scheduler for a choice
until executors run out, the quota binds, nothing is ready, the scheduler
declines (a deferral), or it reports that nothing it would grow can take
another executor. Every choice must be able to take one: a choice the
engine cannot grow is a scheduler bug, and the pass raises on it. Quotas
are enforced without preemption, matching both CAP's design and the
Kubernetes resource-quota semantics of the prototype ("when the quota is
lowered, existing pods are not preempted, but new pods are not scheduled
until usage falls below the quota").
"""

from __future__ import annotations

import heapq
import itertools
import pickle
import time as _wallclock
from collections import deque
from dataclasses import dataclass
from typing import Sequence

from repro.carbon.api import CarbonIntensityAPI, CarbonReading
from repro.obs.observer import FrontierCacheStats
from repro.obs.observer import current as _current_observer
from repro.simulator.interfaces import (
    NOTHING_GROWABLE,
    Provisioner,
    StageScheduler,
)
from repro.simulator.metrics import ExperimentResult
from repro.simulator.state import ClusterView, FrontierTable, JobRuntime
from repro.simulator.trace import (
    HoldRecord,
    ScheduleTrace,
    TaskRecord,
    TraceAppender,
)
from repro.workloads.arrivals import JobSubmission

_ARRIVAL, _TASK_DONE, _CARBON_STEP, _CAPACITY, _SIGNAL = 0, 1, 2, 3, 4


@dataclass(frozen=True)
class ClusterConfig:
    """Static description of the simulated cluster.

    Parameters
    ----------
    num_executors:
        Cluster size ``K``.
    executor_move_delay:
        Seconds an executor spends relocating when it switches to a
        different job (the Decima simulator's executor-movement delay). The
        executor is busy — and accrues carbon — during the move.
    per_job_executor_cap:
        Maximum concurrent executors per job. ``None`` reproduces Spark
        standalone mode (stages can grab up to their task count); the
        prototype's Spark-on-Kubernetes mode uses 25 (Section 6.3).
    mode:
        Label only: ``"standalone"`` or ``"kubernetes"``.
    """

    num_executors: int = 50
    executor_move_delay: float = 0.5
    per_job_executor_cap: int | None = None
    mode: str = "standalone"
    idle_power_fraction: float = 0.3

    def __post_init__(self) -> None:
        if self.num_executors < 1:
            raise ValueError("need at least one executor")
        if self.executor_move_delay < 0:
            raise ValueError("executor_move_delay must be >= 0")
        if self.per_job_executor_cap is not None and self.per_job_executor_cap < 1:
            raise ValueError("per_job_executor_cap must be >= 1")
        if not 0.0 <= self.idle_power_fraction <= 1.0:
            raise ValueError("idle_power_fraction must be in [0, 1]")

    @classmethod
    def standalone(cls, num_executors: int, **kwargs) -> "ClusterConfig":
        """Spark standalone mode: no per-job executor cap (simulator mode)."""
        return cls(
            num_executors=num_executors, per_job_executor_cap=None,
            mode="standalone", **kwargs,
        )

    @classmethod
    def kubernetes(
        cls, num_executors: int, per_job_cap: int = 25, **kwargs
    ) -> "ClusterConfig":
        """Spark-on-Kubernetes mode: per-job cap, as in the prototype."""
        return cls(
            num_executors=num_executors, per_job_executor_cap=per_job_cap,
            mode="kubernetes", **kwargs,
        )


class _ExecutorPool:
    """Free executors, with optional per-job reservations.

    Under hoarding semantics (``StageScheduler.holds_executors``), executors
    released by a still-running job go into that job's reserved list instead
    of the general pool; :meth:`unreserve` returns them when the job
    completes.

    The general pool is a doubly-linked list (arrays indexed by executor id)
    plus per-last-job candidate queues, so :meth:`take` is O(1) amortized
    instead of a linear affinity scan, while preserving the exact selection
    order of the scan it replaces: oldest matching general executor for
    affinity hits, newest general executor otherwise.

    :attr:`free_count` and the per-job reserved counts are kept current by
    every operation, so the engine reads them per step and per grant
    without summing the reservations.
    """

    def __init__(self, count: int) -> None:
        #: job id -> its idle reserved executors; never an empty list.
        self.reserved: dict[int, list[int]] = {}
        #: job id -> ``len(reserved[job id])``.
        self._reserved_counts: dict[int, int] = {}
        #: Idle executors, general plus reserved.
        self.free_count = count
        self.last_job: list[int | None] = [None] * count
        # Doubly-linked general list in release order (head = oldest).
        self._next: list[int | None] = [
            i + 1 if i + 1 < count else None for i in range(count)
        ]
        self._prev: list[int | None] = [
            i - 1 if i > 0 else None for i in range(count)
        ]
        self._head: int | None = 0 if count else None
        self._tail: int | None = count - 1 if count else None
        self._in_general = [True] * count
        self._general_count = count
        # Monotone per-executor token, bumped on every general append;
        # candidate-queue entries carry the token they were enqueued under,
        # so stale entries (executor taken, or re-released since) are
        # recognized and dropped lazily.
        self._token = [0] * count
        self._by_job: dict[int, deque[tuple[int, int]]] = {}

    # -- linked-list primitives -----------------------------------------
    def _unlink(self, executor_id: int) -> None:
        prev, nxt = self._prev[executor_id], self._next[executor_id]
        if prev is None:
            self._head = nxt
        else:
            self._next[prev] = nxt
        if nxt is None:
            self._tail = prev
        else:
            self._prev[nxt] = prev
        self._in_general[executor_id] = False
        self._general_count -= 1
        self.free_count -= 1

    def _append(self, executor_id: int) -> None:
        self._prev[executor_id] = self._tail
        self._next[executor_id] = None
        if self._tail is None:
            self._head = executor_id
        else:
            self._next[self._tail] = executor_id
        self._tail = executor_id
        self._in_general[executor_id] = True
        self._general_count += 1
        self.free_count += 1
        self._token[executor_id] += 1

    def _pop_reserved_of(self, job_id: int, held: list[int]) -> int:
        """Remove ``job_id``'s newest reserved executor (``held`` is its
        non-empty list)."""
        executor_id = held.pop()
        if held:
            self._reserved_counts[job_id] -= 1
        else:
            del self.reserved[job_id]
            del self._reserved_counts[job_id]
        self.free_count -= 1
        return executor_id

    # -------------------------------------------------------------------
    def take(self, job_id: int) -> tuple[int, bool]:
        """Pop an executor for ``job_id``; returns ``(id, needs_move)``.

        Preference order: the job's reserved executors, then the general
        executor last bound to this job that has waited longest (no move),
        then the most recently released general one.
        """
        held = self.reserved.get(job_id)
        if held:
            return self._pop_reserved_of(job_id, held), False
        queue = self._by_job.get(job_id)
        while queue:
            executor_id, token = queue[0]
            if self._in_general[executor_id] and self._token[executor_id] == token:
                queue.popleft()
                self._unlink(executor_id)
                return executor_id, False
            queue.popleft()  # stale: taken or re-released since enqueued
        executor_id = self._tail
        if executor_id is None:
            raise IndexError("take from an empty executor pool")
        self._unlink(executor_id)
        return executor_id, True

    def release(self, executor_id: int, job_id: int, hold: bool) -> None:
        self.last_job[executor_id] = job_id
        if hold:
            self.reserved.setdefault(job_id, []).append(executor_id)
            counts = self._reserved_counts
            counts[job_id] = counts.get(job_id, 0) + 1
            self.free_count += 1
        else:
            self._append(executor_id)
            self._by_job.setdefault(job_id, deque()).append(
                (executor_id, self._token[executor_id])
            )

    def unreserve(self, job_id: int) -> list[int]:
        """Return a finished job's held executors to the general pool.

        The returned executors keep their affinity (``last_job``) entries —
        irrelevant when the owner finished (the engine's only caller), but
        it keeps the pool observationally identical to a plain list scan.
        """
        held = self.reserved.pop(job_id, [])
        if held:
            del self._reserved_counts[job_id]
            self.free_count -= len(held)
        for executor_id in held:
            self._append(executor_id)
            self._by_job.setdefault(self.last_job[executor_id], deque()).append(
                (executor_id, self._token[executor_id])
            )
        return held

    # -- capacity disruption hooks --------------------------------------
    def pop_newest_general(self) -> int:
        """Remove and return the most recently released general executor.

        Used by :meth:`SimulationStepper.set_capacity` to take idle
        executors offline; raises ``IndexError`` when the general pool is
        empty (the caller then seizes reserved or running executors).
        """
        executor_id = self._tail
        if executor_id is None:
            raise IndexError("pop from an empty executor pool")
        self._unlink(executor_id)
        return executor_id

    def pop_reserved(self) -> tuple[int, int] | None:
        """Remove one idle-but-bound executor (deterministic job order).

        Returns ``(owner_job_id, executor_id)``, or ``None`` when no job
        holds reserved executors. The lowest job id loses an executor
        first, newest reservation first — a pure function of pool state,
        so disrupted replays are identical.
        """
        if not self.reserved:
            return None
        job_id = min(self.reserved)
        return job_id, self._pop_reserved_of(job_id, self.reserved[job_id])

    def add_back(self, executor_id: int) -> None:
        """Return a previously offlined executor to the general pool.

        The executor keeps its ``last_job`` affinity, exactly as if it had
        just been released by that job.
        """
        self._append(executor_id)
        last = self.last_job[executor_id]
        if last is not None:
            self._by_job.setdefault(last, deque()).append(
                (executor_id, self._token[executor_id])
            )

    def forget_job(self, job_id: int) -> None:
        """Drop a finished job's candidate queue (streaming-mode GC).

        ``take(job_id)`` is never called again for a finished job, so the
        queue is dead weight; dropping it does not perturb any other job's
        selection order. ``last_job`` affinity entries are deliberately kept
        (``add_back`` may recreate a queue, bounded by the executor count).
        """
        self._by_job.pop(job_id, None)

    def free_for(self, job_id: int) -> int:
        return self._general_count + self._reserved_counts.get(job_id, 0)

    @property
    def general_free(self) -> int:
        return self._general_count

    def reserved_count(self, job_id: int) -> int:
        """Idle executors reserved for ``job_id``."""
        return self._reserved_counts.get(job_id, 0)

    def reserved_counts(self) -> dict[int, int]:
        """``{job_id: reserved count}`` for every job holding any (a copy)."""
        return dict(self._reserved_counts)


class Simulation:
    """One experiment: a scheduler (plus optional provisioner) on a cluster.

    Parameters
    ----------
    config:
        Cluster description.
    scheduler:
        The stage scheduler under test.
    carbon_api:
        Carbon intensity source (drives both PCAPS/CAP decisions and the
        ex-post accounting).
    provisioner:
        Optional cluster-wide quota policy (CAP, GreenHadoop).
    measure_latency:
        Record wall-clock time spent inside ``scheduler.select`` (Fig. 20).
    max_time:
        Safety limit on simulated time; exceeding it raises ``RuntimeError``
        (guards against schedulers that never make progress).
    """

    def __init__(
        self,
        config: ClusterConfig,
        scheduler: StageScheduler,
        carbon_api: CarbonIntensityAPI,
        provisioner: Provisioner | None = None,
        measure_latency: bool = False,
        max_time: float | None = None,
    ) -> None:
        self.config = config
        self.scheduler = scheduler
        self.carbon_api = carbon_api
        self.provisioner = provisioner
        self.measure_latency = measure_latency
        self.max_time = max_time
        self._seq = itertools.count()

    # ------------------------------------------------------------------
    def stepper(self, trace: TraceAppender | None = None) -> "SimulationStepper":
        """An incremental driver over this simulation's event loop.

        Resets the scheduler, provisioner, and event tie-break counter, so a
        fresh stepper replays exactly like a fresh :meth:`run`. Used by the
        federation coordinator (:mod:`repro.geo`), which interleaves several
        engines in one virtual timeline and injects jobs between events.

        ``trace`` selects the trace backend: any :class:`TraceAppender`
        (e.g. a :class:`~repro.simulator.streaming.StreamingAggregator` for
        O(1)-memory service mode). ``None`` keeps the default materialized
        :class:`ScheduleTrace`.
        """
        return SimulationStepper(self, trace=trace)

    def run(self, submissions: Sequence[JobSubmission]) -> ExperimentResult:
        """Simulate the batch to completion and return the measurements."""
        if not submissions:
            raise ValueError("need at least one job submission")
        stepper = self.stepper()
        for sub in submissions:
            stepper.submit(sub)
        stepper.run_to_completion()
        return stepper.result()


class SimulationStepper:
    """Resumable event loop of one :class:`Simulation`.

    Splits :meth:`Simulation.run` into three verbs so a coordinator can
    interleave several engines in event time:

    - :meth:`submit` enqueues a job arrival (any time before its timestamp);
    - :meth:`advance_until` processes every event strictly before ``t``;
    - :meth:`run_to_completion` drains the remaining events.

    Submitting every job up front and draining is *exactly* ``run()`` — the
    event heap, tie-break sequence, and per-timestamp processing are shared,
    so single-cluster results are bit-identical whichever path built them.

    The stepper also exposes the occupancy aggregates routing policies read
    between events (:attr:`busy_executors`, :attr:`queued_jobs`,
    :meth:`outstanding_work`), and the disruption verbs
    (:meth:`set_capacity` / :meth:`suspend` / :meth:`resume`,
    :meth:`schedule_capacity`, :meth:`schedule_signal_blackout`,
    :meth:`withdraw`) that :mod:`repro.disrupt` drives. A stepper with no
    disruptions installed replays bit-identically to ``run()``.
    """

    def __init__(
        self, sim: Simulation, trace: TraceAppender | None = None
    ) -> None:
        self.sim = sim
        sim.scheduler.reset()
        if sim.provisioner is not None:
            sim.provisioner.reset()
        # Restart the event tie-break counter so a second run()/stepper on
        # the same Simulation replays the identical heap ordering.
        sim._seq = itertools.count()

        self.jobs: dict[int, JobRuntime] = {}
        # Not-yet-finished jobs in arrival order: arrival events insert (the
        # heap pops them in time order), completions delete, so every
        # ClusterView reuses this mapping instead of re-sorting all jobs.
        self.active: dict[int, JobRuntime] = {}
        self.pool = _ExecutorPool(sim.config.num_executors)
        self.trace: TraceAppender = (
            trace
            if trace is not None
            else ScheduleTrace(
                total_executors=sim.config.num_executors,
                idle_power_fraction=sim.config.idle_power_fraction,
            )
        )
        self.events: list[tuple[float, int, int, tuple]] = []
        self.sched_time = 0.0
        self.sched_calls = 0
        self.events_processed = 0
        self.holds = sim.scheduler.holds_executors
        # First grant time per executor, indexed by job, for HoldRecord
        # emission on job completion (no all-pairs scan).
        self.first_take: dict[int, dict[int, float]] = {}
        self._carbon_event_at: float | None = None
        self._submitted = 0
        self._pending_arrivals = 0
        self._pending_work = 0.0
        #: A job finished since the last retire_finished().
        self._finished_unretired = False
        # The frontier matrix shared by every view of the run, patched per
        # touched job: a grant or a task finish touches its stage's row
        # (the table rebuilds the job's block if the stage completed); an
        # arrival, a preemption or a withdrawal marks the job for a
        # rebuild. None makes every view build its frontier from scratch.
        self._frontier_table: FrontierTable | None = FrontierTable()
        # -- disruption state (inert unless the disrupt verbs are used) --
        #: Executors currently online; set_capacity/suspend/resume move it.
        self.capacity = sim.config.num_executors
        self._offline: list[int] = []  # parked executor ids, LIFO
        self._task_tokens = itertools.count()
        #: token -> (job_id, stage_id, executor_id, trace index) per task
        #: in flight, so preemption can cancel its completion event and
        #: truncate its trace record.
        self._inflight: dict[int, tuple[int, int, int, int]] = {}
        self._cancelled: set[int] = set()
        self.preempted_tasks = 0
        #: Submitted-but-not-arrived jobs, for withdraw() on migration.
        self._pending_subs: dict[int, JobSubmission] = {}
        self._withdrawn_pending: set[int] = set()
        #: Last fresh carbon reading while the signal is blacked out.
        self._frozen_reading: CarbonReading | None = None
        # -- observability (repro.obs) ----------------------------------
        self._attach_observer()

    def _attach_observer(self) -> None:
        """Capture the ambient observer into the per-stepper probe fields.

        The observer is captured once (at construction, and again on
        :meth:`restore`); with collection off every probe site costs one
        attribute load + an `is None` test. Probes only count and time —
        they never touch RNG state or event ordering, so enabled runs stay
        fingerprint-identical (pinned by tests/test_obs_fingerprints.py).
        """
        observer = _current_observer()
        self._obs = observer
        if observer is not None:
            registry = observer.registry
            #: Per-kind event counters, indexed by the event-kind constants.
            self._obs_events = (
                registry.counter("engine.events.arrival"),
                registry.counter("engine.events.task_done"),
                registry.counter("engine.events.carbon_step"),
                registry.counter("engine.events.capacity"),
                registry.counter("engine.events.signal"),
            )
            self._obs_steps = registry.counter("engine.steps")
            self._obs_views = registry.counter("engine.views")
            self._obs_heap_hw = registry.gauge("engine.heap.high_water")
            self._obs_preempted = registry.counter("engine.preemptions")
            self._obs_deferrals = registry.counter("engine.deferrals")
            self._obs_select = registry.histogram("engine.select_latency_s")
            self._cache_stats = FrontierCacheStats(registry)
        else:
            self._obs_events = None
            self._obs_steps = None
            self._obs_views = None
            self._obs_heap_hw = None
            self._obs_preempted = None
            self._obs_deferrals = None
            self._obs_select = None
            self._cache_stats = None

    # -- checkpoint / restore -------------------------------------------
    #: Probe fields excluded from checkpoints: they hold live references
    #: into the ambient observer's registry, which belongs to the process,
    #: not the simulation. Restore re-attaches to whatever observer is
    #: current then.
    _OBS_FIELDS = (
        "_obs",
        "_obs_events",
        "_obs_steps",
        "_obs_views",
        "_obs_heap_hw",
        "_obs_preempted",
        "_obs_deferrals",
        "_obs_select",
        "_cache_stats",
    )

    def __getstate__(self) -> dict:
        """The stepper's state minus observer probes.

        The frontier table is a pure accelerator (the frontier tests prove
        its matrices are bit-equal to a from-scratch walk), so it pickles
        empty (see :class:`~repro.simulator.state.FrontierTable`) rather
        than as numpy blocks that a restored run rebuilds on first use.
        """
        state = self.__dict__.copy()
        for name in self._OBS_FIELDS:
            state.pop(name, None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._attach_observer()

    def checkpoint(self) -> bytes:
        """Serialize the full engine state — event heap, job runtimes, pool
        occupancy, trace, RNG generators — as one blob.

        The determinism contract (pinned by tests/test_checkpoint.py on
        all nine fingerprint scenarios): ``restore(checkpoint())`` at any
        cut point, followed by draining, produces a schedule byte-identical
        to the uninterrupted run. Pickle round-trips floats, numpy arrays,
        and ``np.random.Generator`` state exactly, which is what makes the
        contract hold.
        """
        return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def restore(cls, blob: bytes) -> "SimulationStepper":
        """Rebuild a stepper from :meth:`checkpoint` output and re-attach
        it to the current process's observer (if any)."""
        stepper = pickle.loads(blob)
        if not isinstance(stepper, cls):
            raise TypeError(
                f"checkpoint does not hold a {cls.__name__} "
                f"(got {type(stepper).__name__})"
            )
        return stepper

    # -- job intake -----------------------------------------------------
    def submit(self, sub: JobSubmission) -> None:
        """Enqueue one job arrival. Must precede its arrival timestamp."""
        self._push(sub.arrival_time, _ARRIVAL, (sub,))
        self._submitted += 1
        self._pending_arrivals += 1
        self._pending_work += sub.dag.total_work
        self._pending_subs[sub.job_id] = sub

    def _push(self, t: float, kind: int, payload: tuple = ()) -> None:
        heapq.heappush(self.events, (t, next(self.sim._seq), kind, payload))

    # -- introspection (routing policies) -------------------------------
    @property
    def busy_executors(self) -> int:
        return self.capacity - self.pool.free_count

    @property
    def queued_jobs(self) -> int:
        """Jobs in the system: arrived-but-unfinished plus submitted."""
        return len(self.active) + self._pending_arrivals

    def outstanding_work(self) -> float:
        """Executor-seconds not yet finished (active + pending arrivals)."""
        return self._pending_work + sum(
            job.remaining_work() for job in self.active.values()
        )

    def next_event_time(self) -> float | None:
        return self.events[0][0] if self.events else None

    # -- disruption verbs ----------------------------------------------
    # With none of these used (and nothing scheduled via schedule_*), the
    # stepper replays bit-identically to the pre-disruption engine: the
    # capacity stays at num_executors, no completion event is ever
    # cancelled, and the carbon signal is never frozen.
    def set_capacity(self, t: float, n: int) -> None:
        """Change the number of online executors to ``n``, effective now.

        Shrinking seizes executors in a deterministic order: idle general
        executors (newest release first), then idle-but-bound reserved
        executors (lowest job id first), then running tasks — latest
        launched first, so the least work is wasted. Preempted tasks are
        cancelled, their trace records truncated at ``t`` (the busy time
        so far still counts toward carbon — failover is not free), and
        their stages requeue for a later assignment pass. Growing brings
        parked executors back, most recently parked first.

        Capacity changes do not run an assignment pass by themselves; use
        :meth:`schedule_capacity` to make the change an engine event (the
        surrounding step's pass then reacts to it).
        """
        n = max(0, min(n, self.sim.config.num_executors))
        if n == self.capacity:
            return
        pool = self.pool
        if n < self.capacity:
            need = self.capacity - n
            while need > 0 and pool.general_free > 0:
                self._offline.append(pool.pop_newest_general())
                need -= 1
            while need > 0:
                popped = pool.pop_reserved()
                if popped is None:
                    break
                job_id, executor_id = popped
                self._offline.append(executor_id)
                self._close_hold(job_id, executor_id, t)
                need -= 1
            while need > 0:
                self._preempt_latest(t)
                need -= 1
        else:
            for _ in range(n - self.capacity):
                pool.add_back(self._offline.pop())
        self.capacity = n

    def _close_hold(self, job_id: int, executor_id: int, t: float) -> None:
        """End an executor's hold interval at seizure time.

        Under hoarding semantics an executor's hold normally closes at job
        completion; an executor taken offline stops drawing power, so its
        open interval is emitted now. If the job grabs the executor again
        after recovery, ``first_take`` starts a fresh interval.
        """
        if not self.holds:
            return
        start = self.first_take.get(job_id, {}).pop(executor_id, None)
        if start is not None:
            self.trace.add_hold(
                HoldRecord(
                    job_id=job_id, executor_id=executor_id, start=start, end=t
                )
            )

    def suspend(self, t: float) -> None:
        """Take the whole cluster offline (outage start)."""
        self.set_capacity(t, 0)

    def resume(self, t: float) -> None:
        """Restore full capacity (outage end)."""
        self.set_capacity(t, self.sim.config.num_executors)

    def _preempt_latest(self, t: float) -> None:
        """Kill the most recently launched in-flight task; park its executor."""
        token = max(self._inflight)
        job_id, stage_id, executor_id, trace_index = self._inflight.pop(token)
        self._cancelled.add(token)
        if self._frontier_table is not None:
            self._frontier_table.mark(job_id)
        self.jobs[job_id].stages[stage_id].unlaunch()
        self.trace.truncate_task(trace_index, t)
        self._offline.append(executor_id)
        self._close_hold(job_id, executor_id, t)
        self.preempted_tasks += 1
        if self._obs_preempted is not None:
            self._obs_preempted.inc()

    def schedule_capacity(self, t: float, n: int) -> None:
        """Enqueue a capacity change as an engine event at time ``t``."""
        self._push(t, _CAPACITY, (n,))

    def schedule_signal_blackout(self, start: float, end: float) -> None:
        """Freeze the scheduler-visible carbon signal over ``[start, end)``.

        Between the two events every assignment pass sees the last reading
        taken at ``start`` (stale intensity and forecast bounds, current
        clock); the ex-post carbon accounting still uses the true trace.
        """
        self._push(start, _SIGNAL, (True,))
        self._push(end, _SIGNAL, (False,))

    def withdraw(self, job_id: int) -> JobSubmission | None:
        """Remove a not-yet-started job so it can be resubmitted elsewhere.

        Returns the job's submission if it was still pending arrival or had
        arrived without launching a single task; returns ``None`` (and
        changes nothing) once any task has started — partially executed
        jobs stay put. Used by the federation's mid-trial migration.
        """
        sub = self._pending_subs.get(job_id)
        if sub is not None:
            del self._pending_subs[job_id]
            self._withdrawn_pending.add(job_id)
            self._submitted -= 1
            self._pending_arrivals -= 1
            self._pending_work -= sub.dag.total_work
            return sub
        job = self.jobs.get(job_id)
        if job is None or job.started:
            return None
        del self.jobs[job_id]
        del self.active[job_id]
        if self._frontier_table is not None:
            self._frontier_table.mark(job_id)
        self._submitted -= 1
        return JobSubmission(
            arrival_time=job.arrival_time, dag=job.dag, job_id=job_id
        )

    # -- the loop -------------------------------------------------------
    def advance_until(self, t: float) -> None:
        """Process every event with timestamp strictly before ``t``."""
        while self.events and self.events[0][0] < t:
            self.step()

    def advance_through(self, t: float) -> None:
        """Process every event with timestamp at or before ``t``.

        The federation's migration sweep uses this so a region's outage
        event *at* ``t`` has already been applied (capacity dropped, tasks
        preempted) before queued jobs are withdrawn and re-routed.
        """
        while self.events and self.events[0][0] <= t:
            self.step()

    def run_to_completion(self) -> None:
        while self.events:
            self.step()

    def step(self) -> float:
        """Drain one timestamp's events and run the assignment pass."""
        sim = self.sim
        config = sim.config
        events = self.events
        jobs = self.jobs
        active = self.active
        pool = self.pool
        trace = self.trace
        holds = self.holds
        first_take = self.first_take
        table = self._frontier_table

        now = events[0][0]
        if sim.max_time is not None and now > sim.max_time:
            raise RuntimeError(
                f"simulation exceeded max_time={sim.max_time}; "
                f"scheduler {sim.scheduler.name!r} may not be making progress"
            )
        obs_events = self._obs_events
        if obs_events is not None:
            self._obs_steps.inc()
            self._obs_heap_hw.high_water(len(events))
        # Drain every event at this timestamp before scheduling.
        while events and events[0][0] == now:
            _, _, kind, payload = heapq.heappop(events)
            self.events_processed += 1
            if obs_events is not None:
                obs_events[kind].inc()
            if kind == _ARRIVAL:
                sub = payload[0]
                if sub.job_id in self._withdrawn_pending:
                    self._withdrawn_pending.discard(sub.job_id)
                    continue  # migrated away before arriving
                job = JobRuntime(
                    job_id=sub.job_id, dag=sub.dag, arrival_time=now
                )
                jobs[sub.job_id] = job
                active[sub.job_id] = job
                if table is not None:
                    table.mark(sub.job_id)
                self._pending_arrivals -= 1
                self._pending_work -= sub.dag.total_work
                self._pending_subs.pop(sub.job_id, None)
            elif kind == _TASK_DONE:
                job_id, stage_id, executor_id, token = payload
                if token in self._cancelled:
                    self._cancelled.discard(token)
                    continue  # task was preempted; its relaunch is pending
                trace_index = self._inflight.pop(token)[3]
                trace.task_done(trace_index)
                if table is not None:
                    table.touch(job_id, stage_id)
                job_done = jobs[job_id].record_task_finish(stage_id, now)
                pool.release(executor_id, job_id, hold=holds and not job_done)
                if job_done:
                    del active[job_id]
                    self._finished_unretired = True
                    if holds:
                        # Close the job's hold intervals, free its roster.
                        pool.unreserve(job_id)
                        for eid, start in first_take.pop(job_id, {}).items():
                            trace.add_hold(
                                HoldRecord(
                                    job_id=job_id,
                                    executor_id=eid,
                                    start=start,
                                    end=now,
                                )
                            )
            elif kind == _CARBON_STEP:
                self._carbon_event_at = None
            elif kind == _CAPACITY:
                self.set_capacity(now, payload[0])
            elif kind == _SIGNAL:
                if payload[0]:
                    if self._frozen_reading is None:
                        self._frozen_reading = sim.carbon_api.reading(now)
                else:
                    self._frozen_reading = None

        # Assignment pass.
        if self._frozen_reading is None:
            reading = sim.carbon_api.reading(now)
        else:
            stale = self._frozen_reading
            reading = CarbonReading(
                time=now,
                intensity=stale.intensity,
                lower_bound=stale.lower_bound,
                upper_bound=stale.upper_bound,
            )
        capacity = self.capacity
        busy = capacity - pool.free_count
        quota = config.num_executors
        # One view per step, built when first needed and brought up to
        # date in place between select calls (see ClusterView).
        view: ClusterView | None = None
        if sim.provisioner is not None:
            view = self._view(now, reading, busy, quota)
            quota = max(1, min(sim.provisioner.quota(view), quota))
        if capacity < quota:
            quota = capacity
        if view is not None:
            view.set_quota(quota)
        trace.add_quota(now, quota)

        while pool.free_count > 0 and busy < quota:
            if view is None:
                view = self._view(now, reading, busy, quota)
            if not view.has_assignable():
                break
            obs_select = self._obs_select
            if sim.measure_latency or obs_select is not None:
                t0 = _wallclock.perf_counter()
                choice = sim.scheduler.select_gen(view)
                elapsed = _wallclock.perf_counter() - t0
                if sim.measure_latency:
                    self.sched_time += elapsed
                    self.sched_calls += 1
                if obs_select is not None:
                    obs_select.record(elapsed)
            else:
                choice = sim.scheduler.select_gen(view)
            if choice is None:
                trace.deferrals += 1
                if obs_events is not None:
                    self._obs_deferrals.inc()
                break
            if choice is NOTHING_GROWABLE:
                break  # nothing held back for carbon: not a deferral
            job_id = choice.job_id
            stage_id = choice.stage_id
            job = jobs[job_id]
            runtime = job.stages[stage_id]
            limit = view.scaled_limit(
                choice.parallelism_limit
                if choice.parallelism_limit is not None
                else runtime.stage.num_tasks
            )
            assignable = min(
                pool.free_for(job_id),
                quota - busy,
                runtime.unlaunched,
                limit - runtime.running,
            )
            if config.per_job_executor_cap is not None:
                assignable = min(
                    assignable,
                    config.per_job_executor_cap - job.executors_in_use,
                )
            if assignable <= 0:
                # Schedulers choose only stages the view says can grow.
                raise RuntimeError(
                    f"scheduler {sim.scheduler.name!r} chose job {job_id} "
                    f"stage {stage_id}, which cannot grow"
                )
            task_duration = runtime.stage.task_duration
            for _ in range(assignable):
                executor_id, needs_move = pool.take(job_id)
                if holds:
                    first_take.setdefault(job_id, {}).setdefault(
                        executor_id, now
                    )
                work_start = now + (
                    config.executor_move_delay if needs_move else 0.0
                )
                end = work_start + task_duration
                task_index = runtime.launched
                runtime.launch(1)
                trace_index = trace.add_task(
                    TaskRecord.launched(
                        job_id, stage_id, task_index, executor_id,
                        now, work_start, end,
                    )
                )
                token = next(self._task_tokens)
                self._inflight[token] = (
                    job_id, stage_id, executor_id, trace_index
                )
                self._push(
                    end, _TASK_DONE, (job_id, stage_id, executor_id, token)
                )
                busy += 1
            if table is not None:
                table.touch(job_id, stage_id)
            # Choice objects need only job/stage/limit; ends_pass is opt-in.
            if getattr(choice, "ends_pass", False):
                break
            view.advance(
                busy, pool.general_free, job_id, pool.reserved_count(job_id)
            )

        # Keep carbon steps flowing while any work is outstanding, so
        # deferrals always have a future scheduling event to wake on.
        outstanding = self._pending_arrivals > 0 or bool(active)
        if outstanding and self._carbon_event_at is None:
            self._carbon_event_at = sim.carbon_api.trace.next_change_after(now)
            self._push(self._carbon_event_at, _CARBON_STEP)
        return now

    def _view(
        self, now: float, reading: CarbonReading, busy: int, quota: int
    ) -> ClusterView:
        """The step's view of the cluster, under ``quota``."""
        if self._obs_views is not None:
            self._obs_views.inc()
        pool = self.pool
        config = self.sim.config
        return ClusterView(
            time=now,
            total_executors=self.capacity,
            busy_executors=busy,
            quota=quota,
            jobs=self.jobs,
            carbon=reading,
            per_job_cap=config.per_job_executor_cap,
            general_free=pool.general_free,
            reserved_free=pool.reserved_counts(),
            active=self.active,
            frontier_table=self._frontier_table,
            cache_stats=self._cache_stats,
            provisioner=self.sim.provisioner,
        )

    # -- finalization ---------------------------------------------------
    def retire_finished(self) -> list[tuple[int, float, float, float]]:
        """Garbage-collect finished jobs' runtime state (streaming mode).

        Pops every done job from :attr:`jobs`, forgets its executor-affinity
        queue, and decrements the submitted count, so steady-state memory
        stays proportional to the *active* job set instead of everything
        ever run. Returns ``(job_id, arrival, finish, total_work)`` per
        retired job so the caller can fold completion metrics (JCT, stretch)
        before the state is gone. Retirement never alters scheduling:
        finished jobs are already out of :attr:`active` and their pool
        queues are never consulted again. Returns at once unless a job
        finished since the last call.
        """
        retired: list[tuple[int, float, float, float]] = []
        if not self._finished_unretired:
            return retired
        self._finished_unretired = False
        done_ids = [job_id for job_id, job in self.jobs.items() if job.done]
        for job_id in done_ids:
            job = self.jobs.pop(job_id)
            self._submitted -= 1
            self.pool.forget_job(job_id)
            retired.append(
                (job_id, job.arrival_time, job.finish_time, job.dag.total_work)
            )
        return retired

    def result(self) -> ExperimentResult:
        """Measurements for everything submitted so far (all must be done)."""
        if not isinstance(self.trace, ScheduleTrace):
            raise RuntimeError(
                "result() requires the materialized ScheduleTrace backend; "
                "streaming runs read their StreamingAggregator instead "
                "(see repro.stream)"
            )
        jobs = self.jobs
        unfinished = [job_id for job_id, job in jobs.items() if not job.done]
        if unfinished or len(jobs) != self._submitted:
            raise RuntimeError(
                f"simulation ended with unfinished jobs: {unfinished}"
            )
        return ExperimentResult(
            scheduler_name=self.sim.scheduler.name,
            trace=self.trace,
            carbon_trace=self.sim.carbon_api.trace,
            arrivals={job_id: job.arrival_time for job_id, job in jobs.items()},
            finishes={job_id: job.finish_time for job_id, job in jobs.items()},
            scheduler_time_s=self.sched_time,
            scheduler_invocations=self.sched_calls,
            events_processed=self.events_processed,
        )


def simulate(
    submissions: Sequence[JobSubmission],
    scheduler: StageScheduler,
    carbon_api: CarbonIntensityAPI,
    config: ClusterConfig | None = None,
    provisioner: Provisioner | None = None,
    **kwargs,
) -> ExperimentResult:
    """Convenience wrapper: build a :class:`Simulation` and run it."""
    sim = Simulation(
        config=config or ClusterConfig(),
        scheduler=scheduler,
        carbon_api=carbon_api,
        provisioner=provisioner,
        **kwargs,
    )
    return sim.run(submissions)
