"""Runtime cluster state and the read-only view handed to schedulers.

The structures here sit on the engine's hottest path: every executor grant
builds a :class:`ClusterView` and walks the ready frontier, and schedulers
query per-job aggregates (remaining work, bottleneck scores) on each
``select`` call. To keep a trial's cost near O(events) instead of
O(events × jobs × stages), :class:`JobRuntime` maintains its frontier
incrementally (updated on stage completion rather than re-derived from the
DAG per call) and memoizes the per-job aggregates behind monotone version
counters, so cached values are the exact floats a from-scratch recompute
would produce — simulation results stay bit-identical.

The probabilistic schedulers (Decima, PCAPS) score and sample the whole
frontier ``A_t`` as the columnar :class:`FrontierArrays` of
:meth:`ClusterView.frontier_arrays`, backed by engine-shared caches. The
greedy baselines (FIFO, the Kubernetes default, weighted-fair) only pick a
job and grow its first assignable stage, so they use the cache-free walk
:meth:`ClusterView.assignable_jobs`, as does the engine's loop condition.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import Iterator, Mapping, NamedTuple

import numpy as np

from repro.carbon.api import CarbonReading
from repro.dag.graph import JobDAG, Stage
from repro.dag.metrics import bottleneck_scores as _bottleneck_scores


@dataclass
class StageRuntime:
    """Progress of one stage of one running job.

    ``launched`` counts tasks ever handed to an executor, ``finished`` counts
    completed tasks; tasks in flight are ``launched - finished``. When owned
    by a :class:`JobRuntime`, launches and finishes notify the owner so its
    cached per-job aggregates stay coherent.
    """

    stage: Stage
    launched: int = 0
    finished: int = 0
    _owner: "JobRuntime | None" = field(
        default=None, repr=False, compare=False
    )

    @property
    def running(self) -> int:
        return self.launched - self.finished

    @property
    def unlaunched(self) -> int:
        return self.stage.num_tasks - self.launched

    @property
    def complete(self) -> bool:
        return self.finished >= self.stage.num_tasks

    def launch(self, count: int) -> None:
        if count <= 0 or count > self.unlaunched:
            raise ValueError(
                f"cannot launch {count} tasks; {self.unlaunched} remain unlaunched"
            )
        self.launched += count
        if self._owner is not None:
            self._owner._on_launch(count)

    def finish_one(self) -> None:
        if self.running <= 0:
            raise RuntimeError("no running task to finish")
        self.finished += 1
        if self._owner is not None:
            self._owner._on_finish()

    def unlaunch(self, count: int = 1) -> None:
        """Roll back ``count`` in-flight launches (task preemption).

        The preempted tasks return to the unlaunched pool and will be
        handed out again by a later assignment pass; the owner's version
        counters bump so every memoized frontier/aggregate revalidates.
        """
        if count <= 0 or count > self.running:
            raise ValueError(
                f"cannot unlaunch {count} tasks; only {self.running} running"
            )
        self.launched -= count
        if self._owner is not None:
            self._owner._on_unlaunch(count)


@dataclass
class JobRuntime:
    """Progress of one job: its DAG plus per-stage runtime counters.

    The ready frontier (Definition 4.1's ``A_t`` restricted to this job) is
    tracked incrementally: ``__post_init__`` seeds it with the DAG roots and
    :meth:`record_task_finish` advances it when a stage completes, so
    :meth:`ready_stage_ids` never re-walks the topological order. Aggregates
    (``executors_in_use``, ``remaining_work``, ``bottleneck_scores``) are
    memoized behind counters bumped by the owned :class:`StageRuntime`
    notifications, which keeps them correct even for callers that launch
    tasks directly on ``job.stages[sid]``.
    """

    job_id: int
    dag: JobDAG
    arrival_time: float
    stages: dict[int, StageRuntime] = field(default_factory=dict)
    completed_stages: set[int] = field(default_factory=set)
    finish_time: float | None = None

    def __post_init__(self) -> None:
        if not self.stages:
            self.stages = {
                sid: StageRuntime(stage) for sid, stage in self.dag.stages.items()
            }
        for runtime in self.stages.values():
            runtime._owner = self
        # Incremental frontier state. Honors a pre-populated
        # ``completed_stages`` so reconstructed runtimes behave identically.
        done = self.completed_stages
        self._topo_index = self.dag.topological_index()
        self._pending_parents = {
            sid: sum(1 for p in stage.parents if p not in done)
            for sid, stage in self.dag.stages.items()
        }
        #: Stages whose parents are all complete and that are not themselves
        #: complete, kept sorted by topological index.
        self._frontier: list[int] = [
            sid
            for sid in self.dag.topological_order()
            if sid not in done and self._pending_parents[sid] == 0
        ]
        self._running_total = sum(sr.running for sr in self.stages.values())
        self._finished_total = sum(sr.finished for sr in self.stages.values())
        # Version counters: ``_task_version`` bumps on every launch/finish,
        # ``_finish_version`` only on finishes, completion count gates the
        # per-completion caches. Each cache pairs (version, value).
        self._task_version = 0
        self._finish_version = 0
        self._assignable_cache: tuple[int, tuple[int, ...]] | None = None
        self._full_frontier_cache: tuple[int, tuple[int, ...]] | None = None
        self._remaining_cache: tuple[int, float] | None = None
        self._bottleneck_cache: tuple[int, dict[int, float]] | None = None

    # -- StageRuntime notification hooks --------------------------------
    def _on_launch(self, count: int) -> None:
        self._running_total += count
        self._task_version += 1

    def _on_finish(self) -> None:
        self._running_total -= 1
        self._finished_total += 1
        self._task_version += 1
        self._finish_version += 1

    def _on_unlaunch(self, count: int) -> None:
        self._running_total -= count
        self._task_version += 1

    @property
    def started(self) -> bool:
        """True once any task of this job has ever been launched."""
        return any(sr.launched > 0 for sr in self.stages.values())

    # -------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self.finish_time is not None

    @property
    def task_version(self) -> int:
        """Monotone counter bumped on every task launch/finish.

        Two reads with equal versions are guaranteed to observe identical
        per-stage counters and an identical frontier — the dirty-mark the
        engine's shared column cache keys on.
        """
        return self._task_version

    @property
    def executors_in_use(self) -> int:
        return self._running_total

    def remaining_work(self) -> float:
        """Executor-seconds of not-yet-finished tasks (including in-flight).

        Memoized per finish-version; the cached value is the identical float
        the full sum would produce (it *is* that sum, reused).
        """
        cached = self._remaining_cache
        if cached is not None and cached[0] == self._finish_version:
            return cached[1]
        value = sum(
            (sr.stage.num_tasks - sr.finished) * sr.stage.task_duration
            for sr in self.stages.values()
        )
        self._remaining_cache = (self._finish_version, value)
        return value

    def bottleneck_scores(self) -> dict[int, float]:
        """Per-stage bottleneck scores over the remaining DAG.

        Delegates to :func:`repro.dag.metrics.bottleneck_scores`, memoized on
        the completed-stage count (the only input that changes mid-run).
        Callers must treat the returned mapping as read-only.
        """
        version = len(self.completed_stages)
        cached = self._bottleneck_cache
        if cached is not None and cached[0] == version:
            return cached[1]
        scores = _bottleneck_scores(self.dag, self.completed_stages)
        self._bottleneck_cache = (version, scores)
        return scores

    def ready_stage_ids(self, include_running: bool = False) -> tuple[int, ...]:
        """The frontier ``A_t`` of Definition 4.1.

        With ``include_running=False`` (the default) only stages that can
        absorb another executor are returned — the assignable frontier. With
        ``include_running=True`` the frontier additionally contains stages
        whose tasks are all launched but not yet finished: Definition 4.1's
        "ready to be executed" set, which running bottleneck stages remain
        part of until they complete. Relative importance (Definition 4.2) is
        normalized over this full set, so a side stage stays unimportant
        while a bottleneck stage is still running.
        """
        if include_running:
            cached = self._full_frontier_cache
            if cached is not None and cached[0] == self._finish_version:
                return cached[1]
            out = tuple(self._frontier)
            self._full_frontier_cache = (self._finish_version, out)
            return out
        cached = self._assignable_cache
        if cached is not None and cached[0] == self._task_version:
            return cached[1]
        stages = self.stages
        out = tuple(
            sid for sid in self._frontier if stages[sid].unlaunched > 0
        )
        self._assignable_cache = (self._task_version, out)
        return out

    def record_task_finish(self, stage_id: int, now: float) -> bool:
        """Mark one task finished; returns True if the whole job completed."""
        runtime = self.stages[stage_id]
        runtime.finish_one()
        if runtime.complete:
            self.completed_stages.add(stage_id)
            self._frontier.remove(stage_id)
            topo = self._topo_index
            pending = self._pending_parents
            for child in self.dag.children(stage_id):
                pending[child] -= 1
                if pending[child] == 0 and child not in self.completed_stages:
                    insort(self._frontier, child, key=topo.__getitem__)
            if len(self.completed_stages) == len(self.dag):
                self.finish_time = now
                return True
        return False


class ReadyStage(NamedTuple):
    """One schedulable (job, stage) pair, with its current slack.

    ``slots`` is the number of additional executors the engine would accept
    for this stage right now, accounting for unlaunched tasks and the quota
    computed at the top of the scheduling pass. Schedulers must only choose
    entries with ``slots > 0``. :meth:`FrontierArrays.entry` materializes
    one row as this tuple — the form in which a probabilistic scheduler's
    sampled stage leaves the columnar frontier.
    """

    job_id: int
    stage_id: int
    stage: Stage
    unlaunched: int
    running: int
    slots: int


class FrontierArrays:
    """Columnar snapshot of the ready frontier (Definition 4.1's ``A_t``).

    One row per (job, stage) pair of the frontier, as parallel numpy
    columns: the :class:`ReadyStage` fields (job, stage, unlaunched,
    running, slots), the per-job aggregates the probabilistic schedulers
    consume (remaining work, executors in use, bottleneck scores) and each
    stage's task count (the columnar parallelism limits read it). One
    ``(n, 9)`` float64 matrix backs all columns; every count and id is far
    below 2**53, so the float representation is exact and ``entry()`` can
    reconstruct the identical :class:`ReadyStage` for any row.

    Contract (relied on by :class:`~repro.simulator.interfaces.
    ProbabilisticPolicy` and pinned by ``tests/test_frontier_arrays.py``
    against a cache-free reference walk):

    - rows appear with active jobs in arrival order and, within a job,
      stages in topological order;
    - ``slots`` is ``min(unlaunched, quota room, the job's executor pool,
      the job's per-job-cap headroom)``, never negative;
      ``bottleneck``/``remaining_work`` are the exact floats the memoized
      :class:`JobRuntime` accessors return (they *are* those values,
      copied once per cache rebuild);
    - the instance is immutable once handed to a scheduler.
    """

    __slots__ = ("data", "_jobs", "parent_data", "filter_mask")

    #: Column indices of :attr:`data`.
    JOB_ID, STAGE_ID, UNLAUNCHED, RUNNING, SLOTS = 0, 1, 2, 3, 4
    BOTTLENECK, REMAINING_WORK, EXECUTORS_IN_USE, NUM_TASKS = 5, 6, 7, 8
    NUM_COLS = 9

    def __init__(
        self,
        data: np.ndarray,
        jobs: Mapping[int, "JobRuntime"],
        parent_data: np.ndarray | None = None,
        filter_mask: np.ndarray | None = None,
    ) -> None:
        self.data = data
        self._jobs = jobs
        #: Provenance of row-filtered instances: the matrix this one was
        #: masked out of, and the boolean mask applied. Score caches use
        #: the pair to derive filtered scores from scores of the parent
        #: (see :meth:`DecimaScheduler.scores_from_arrays`'s caching) —
        #: ``None`` for unfiltered instances.
        self.parent_data = parent_data
        self.filter_mask = filter_mask

    def __len__(self) -> int:
        return self.data.shape[0]

    # -- columns (views into the backing matrix, no copies) -------------
    @property
    def job_ids(self) -> np.ndarray:
        return self.data[:, self.JOB_ID]

    @property
    def stage_ids(self) -> np.ndarray:
        return self.data[:, self.STAGE_ID]

    @property
    def unlaunched(self) -> np.ndarray:
        return self.data[:, self.UNLAUNCHED]

    @property
    def running(self) -> np.ndarray:
        return self.data[:, self.RUNNING]

    @property
    def slots(self) -> np.ndarray:
        return self.data[:, self.SLOTS]

    @property
    def bottleneck(self) -> np.ndarray:
        """Per-entry bottleneck score of (job, stage) over the remaining DAG."""
        return self.data[:, self.BOTTLENECK]

    @property
    def remaining_work(self) -> np.ndarray:
        """Per-entry remaining executor-seconds of the entry's *job*."""
        return self.data[:, self.REMAINING_WORK]

    @property
    def executors_in_use(self) -> np.ndarray:
        """Per-entry count of executors the entry's *job* currently holds."""
        return self.data[:, self.EXECUTORS_IN_USE]

    @property
    def num_tasks(self) -> np.ndarray:
        """Per-entry task count of the entry's stage."""
        return self.data[:, self.NUM_TASKS]

    # -------------------------------------------------------------------
    def compress(self, mask: np.ndarray) -> "FrontierArrays":
        """Rows selected by a boolean mask, as a new instance."""
        return FrontierArrays(
            self.data[mask], self._jobs,
            parent_data=self.data, filter_mask=mask,
        )

    def entry(self, index: int) -> ReadyStage:
        """Materialize row ``index`` as the equivalent :class:`ReadyStage`."""
        job_id, stage_id, unlaunched, running, slots = self.data[
            index, : self.BOTTLENECK
        ].tolist()
        job_id = int(job_id)
        stage_id = int(stage_id)
        return ReadyStage(
            job_id,
            stage_id,
            self._jobs[job_id].stages[stage_id].stage,
            int(unlaunched),
            int(running),
            int(slots),
        )

    def entries(self) -> list[ReadyStage]:
        """All rows as :class:`ReadyStage` tuples (tests, slow paths)."""
        return [self.entry(i) for i in range(len(self))]

    @staticmethod
    def from_entries(
        entries: list[ReadyStage], jobs: Mapping[int, "JobRuntime"]
    ) -> "FrontierArrays":
        """Build the columnar form of an existing entry list.

        The from-scratch reference construction: the incremental path
        (`ClusterView.frontier_arrays` with its shared caches) must always
        produce the matrix this builds from a cache-free entry walk. The
        per-job aggregates come from the same memoized accessors the
        incremental path reads, so both constructions yield identical
        matrices — the property ``tests/test_frontier_arrays.py`` pins
        against random operation interleavings.
        """
        data = np.empty((len(entries), FrontierArrays.NUM_COLS))
        for i, r in enumerate(entries):
            job = jobs[r.job_id]
            data[i] = (
                r.job_id,
                r.stage_id,
                r.unlaunched,
                r.running,
                r.slots,
                job.bottleneck_scores().get(r.stage_id, 0.0),
                job.remaining_work(),
                job.executors_in_use,
                r.stage.num_tasks,
            )
        return FrontierArrays(data, jobs)


_EMPTY_FRONTIER = np.empty((0, FrontierArrays.NUM_COLS))


class ClusterView:
    """Read-only snapshot handed to schedulers at a scheduling event.

    Exposes everything Definition 4.1's schedulers and the carbon-aware
    wrappers need: the frontier of ready stages, executor occupancy, the
    current carbon reading, and per-job progress. Schedulers must treat it as
    immutable; the view relies on that to cache its frontier arrays (the
    engine builds a fresh view per grant, so within one view the frontier
    cannot change).
    """

    def __init__(
        self,
        time: float,
        total_executors: int,
        busy_executors: int,
        quota: int,
        jobs: dict[int, JobRuntime],
        carbon: CarbonReading,
        per_job_cap: int | None = None,
        blocked: frozenset[tuple[int, int]] = frozenset(),
        general_free: int | None = None,
        reserved_free: dict[int, int] | None = None,
        active: Mapping[int, JobRuntime] | None = None,
        column_cache: dict[tuple[int, bool], tuple] | None = None,
        frontier_epoch: int | None = None,
        cache_stats=None,
    ) -> None:
        self.time = time
        self.total_executors = total_executors
        self.busy_executors = busy_executors
        self.quota = quota
        self.carbon = carbon
        self.per_job_cap = per_job_cap
        self._jobs = jobs
        self._blocked = blocked
        #: Arrival-ordered mapping of not-yet-finished jobs, maintained by
        #: the engine (arrival events insert, completions delete). ``None``
        #: means "derive from ``jobs``" — the slow path for hand-built views.
        self._active = active
        #: Engine-owned per-job column cache, shared across consecutive
        #: views of one run. Keyed by ``(job_id, include_saturated)``; each
        #: value is ``(task_version, effective_cap, saturation, block)``
        #: where ``block`` is the job's ``(n, 9)`` float64 slice of a
        #: :class:`FrontierArrays` matrix. A job untouched by launches and
        #: finishes whose executor budget is unchanged (or saturating, see
        #: frontier_arrays) reuses its block verbatim instead of re-walking
        #: its frontier. The ``("view", include_saturated)`` key holds the
        #: whole-matrix cache.
        self._shared_columns = column_cache
        self._fa_cache: dict[bool, FrontierArrays] = {}
        #: Blocked pairs in arrival order plus the boolean masks already
        #: derived from them, so each block() retry extends the previous
        #: mask with one pair instead of re-deriving the conjunction.
        self._blocked_seq: list[tuple[int, int]] = list(blocked)
        self._mask_state: dict[bool, tuple] = {}
        #: Optional :class:`repro.obs.observer.FrontierCacheStats` from the
        #: owning stepper: hit/miss counters for the shared column and
        #: whole-matrix caches, incremented where each consult resolves.
        #: ``None`` (collection off, or hand-built views) counts nothing.
        self._cache_stats = cache_stats
        #: Engine frontier epoch: bumped by the stepper on every event that
        #: can change any job's frontier (arrival, launch, finish,
        #: preemption, withdrawal). Equal epochs across two views guarantee
        #: identical active sets and per-job task versions, enabling the
        #: whole-matrix cache in :meth:`frontier_arrays`. ``None`` (hand-
        #: built views) disables that cache.
        self._frontier_epoch = frontier_epoch
        #: Executors in the shared pool (any job may take these). Under
        #: hoarding semantics idle-but-bound executors are *not* here.
        self.general_free = (
            general_free
            if general_free is not None
            else total_executors - busy_executors
        )
        #: Idle executors bound to a still-running job (hoarding semantics).
        self.reserved_free = dict(reserved_free or {})

    @property
    def free_executors(self) -> int:
        """All idle executors, bound or not."""
        return self.general_free + sum(self.reserved_free.values())

    @property
    def assignable_executors(self) -> int:
        """Executors the quota allows to be put to work right now."""
        return max(0, min(self.free_executors, self.quota - self.busy_executors))

    def active_jobs(self) -> Iterator[JobRuntime]:
        """Jobs that have arrived and not yet finished, in arrival order."""
        if self._active is not None:
            yield from self._active.values()
            return
        for job in sorted(self._jobs.values(), key=lambda j: j.arrival_time):
            if not job.done:
                yield job

    def job(self, job_id: int) -> JobRuntime:
        return self._jobs[job_id]

    def ready_stages(self, include_saturated: bool = False) -> list[ReadyStage]:
        """:meth:`frontier_arrays` as a list of :class:`ReadyStage` tuples.

        Nothing in the package calls it; the benchmark's traced run
        (``perfbench/bench_trace.py``) still wraps this name.
        """
        return self.frontier_arrays(include_saturated).entries()

    def frontier_arrays(self, include_saturated: bool = False) -> FrontierArrays:
        """The frontier across all active jobs, in columnar form.

        With ``include_saturated=False`` only assignable stages (those
        with unlaunched tasks) appear. With ``include_saturated=True`` the
        rows are Definition 4.1's full ``A_t``: stages whose tasks are all
        in flight are included with ``slots == 0`` so probabilistic
        schedulers can normalize importance over them (they must still
        never be *chosen* for assignment). Entries blocked earlier in the
        same scheduling pass (because the engine could not grow them) are
        excluded, which guarantees the assignment loop terminates.

        Per-job blocks are maintained incrementally in the engine-shared
        column cache, keyed on task version plus effective executor
        budget, so consecutive views rebuild only the jobs that launched
        or finished tasks in between. Cached per view.
        """
        cached = self._fa_cache.get(include_saturated)
        if cached is not None:
            return cached
        quota_room = max(0, self.quota - self.busy_executors)
        general_free = self.general_free
        reserved_free = self.reserved_free
        per_job_cap = self.per_job_cap
        shared = self._shared_columns
        # Whole-matrix fast path: with no per-job executor cap and no
        # hoarded reservations, every job shares one scalar budget, so an
        # unchanged (epoch, budget) pair — or two budgets both at or above
        # the stored saturation point — guarantees the previously
        # concatenated matrix is the one this walk would rebuild. This is
        # the dominant case for the probabilistic schedulers (they don't
        # hold executors), and it turns the per-view cost of a deferred or
        # blocked scheduling pass into two integer compares.
        stats = self._cache_stats if shared is not None else None
        view_key = None
        epoch = self._frontier_epoch
        if (
            epoch is not None
            and shared is not None
            and per_job_cap is None
            and not reserved_free
        ):
            scalar_budget = min(quota_room, general_free)
            view_key = ("view", include_saturated)
            hit = shared.get(view_key)
            if (
                hit is not None
                and hit[0] == epoch
                and (
                    hit[1] == scalar_budget
                    or (hit[1] >= hit[2] and scalar_budget >= hit[2])
                )
            ):
                if stats is not None:
                    stats.matrix_hits.inc()
                return self._finish_frontier(hit[3], include_saturated)
            if stats is not None:
                stats.matrix_misses.inc()
        blocks: list[np.ndarray] = []
        global_saturation = 0
        for job in self.active_jobs():
            job_id = job.job_id
            job_pool = general_free + (
                reserved_free.get(job_id, 0) if reserved_free else 0
            )
            budget = min(quota_room, job_pool)
            job_headroom = (
                per_job_cap - job.executors_in_use
                if per_job_cap is not None
                else budget
            )
            if job_headroom < 0:
                job_headroom = 0
            # Every field of a row is a function of the job's task counters
            # (captured by task_version) and min(budget, headroom) (captured
            # by effective_cap) — so an unchanged pair means the cached block
            # holds the identical floats a fresh walk would produce. The cap
            # only enters through clamping (slots = min(unlaunched, cap)), so
            # two caps that both meet or exceed every unlaunched count in the
            # frontier (the stored saturation point) also yield an identical
            # block.
            effective_cap = budget if budget < job_headroom else job_headroom
            if shared is not None:
                hit = shared.get((job_id, include_saturated))
                if (
                    hit is not None
                    and hit[0] == job.task_version
                    and (
                        hit[1] == effective_cap
                        or (hit[1] >= hit[2] and effective_cap >= hit[2])
                    )
                ):
                    if stats is not None:
                        stats.column_hits.inc()
                    if hit[2] > global_saturation:
                        global_saturation = hit[2]
                    blocks.append(hit[3])
                    continue
                if stats is not None:
                    stats.column_misses.inc()
            rows: list[tuple] = []
            stages = job.stages
            remaining = None
            in_use = None
            bottlenecks = None
            saturation = 0
            for sid in job.ready_stage_ids(include_running=include_saturated):
                if remaining is None:
                    remaining = job.remaining_work()
                    in_use = job.executors_in_use
                    bottlenecks = job.bottleneck_scores()
                runtime = stages[sid]
                num_tasks = runtime.stage.num_tasks
                unlaunched = num_tasks - runtime.launched
                if unlaunched > saturation:
                    saturation = unlaunched
                slots = min(unlaunched, budget, job_headroom)
                rows.append(
                    (
                        job_id,
                        sid,
                        unlaunched,
                        runtime.launched - runtime.finished,
                        slots,
                        bottlenecks.get(sid, 0.0),
                        remaining,
                        in_use,
                        num_tasks,
                    )
                )
            block = (
                np.array(rows, dtype=float) if rows else _EMPTY_FRONTIER
            )
            if shared is not None:
                shared[(job_id, include_saturated)] = (
                    job.task_version, effective_cap, saturation, block,
                )
            if saturation > global_saturation:
                global_saturation = saturation
            blocks.append(block)
        if not blocks:
            data = _EMPTY_FRONTIER
        elif len(blocks) == 1:
            data = blocks[0]
        else:
            data = np.concatenate(blocks)
        if view_key is not None:
            shared[view_key] = (
                epoch, scalar_budget, global_saturation, data,
            )
        return self._finish_frontier(data, include_saturated)

    def _finish_frontier(
        self, data: np.ndarray, include_saturated: bool
    ) -> FrontierArrays:
        """Apply the per-pass blocked filter and cache the result per view.

        Entries blocked earlier in this scheduling pass are dropped at the
        view level, so both the per-job cached blocks and the whole-matrix
        cache stay valid while anything is blocked. The blocked set is
        tiny; the mask conjunction is order-independent.
        """
        seq = self._blocked_seq
        if seq and len(data):
            state = self._mask_state.get(include_saturated)
            if state is not None and state[0] is data:
                applied, mask = state[1], state[2]
            else:
                applied, mask = 0, None
            if applied < len(seq):
                job_col = data[:, FrontierArrays.JOB_ID]
                stage_col = data[:, FrontierArrays.STAGE_ID]
                for job_id, stage_id in seq[applied:]:
                    keep = (job_col != job_id) | (stage_col != stage_id)
                    mask = keep if mask is None else mask & keep
                self._mask_state[include_saturated] = (data, len(seq), mask)
            out = FrontierArrays(
                data[mask], self._jobs, parent_data=data, filter_mask=mask
            )
        else:
            out = FrontierArrays(data, self._jobs)
        self._fa_cache[include_saturated] = out
        return out

    def block(self, job_id: int, stage_id: int) -> None:
        """Engine-only: add one blocked entry and invalidate view caches.

        Between a blocked choice and the next ``select`` retry nothing in
        the cluster changes except the blocked set, so the engine reuses
        this view (skipping snapshot construction) and records the block
        here; both :meth:`frontier_arrays` and :meth:`assignable_jobs`
        then skip the pair. Schedulers must never call this — the view
        they receive is immutable for the duration of their ``select``.
        """
        self._blocked = frozenset((*self._blocked, (job_id, stage_id)))
        self._blocked_seq.append((job_id, stage_id))
        self._fa_cache.clear()

    def assignable_jobs(self) -> Iterator[tuple[JobRuntime, int]]:
        """Each job that could take an executor now, with its first such stage.

        Yields ``(job, stage_id)`` for the active jobs in arrival order,
        where ``stage_id`` is the job's first stage in topological order
        that has unlaunched tasks and is not blocked this pass — the
        job's first row with ``slots > 0`` in :meth:`frontier_arrays`. A
        job is skipped when its executor pool (shared plus its own
        reserved executors) is empty or it is at the per-job cap; nothing
        is yielded when the quota leaves no room.
        """
        if self.quota - self.busy_executors <= 0:
            return
        general_free = self.general_free
        reserved_free = self.reserved_free
        blocked = self._blocked
        per_job_cap = self.per_job_cap
        for job in self.active_jobs():
            job_id = job.job_id
            job_pool = general_free + (
                reserved_free.get(job_id, 0) if reserved_free else 0
            )
            if job_pool <= 0:
                continue
            if per_job_cap is not None and per_job_cap <= job.executors_in_use:
                continue
            for sid in job.ready_stage_ids():
                if blocked and (job_id, sid) in blocked:
                    continue
                yield job, sid
                break

    def has_assignable(self) -> bool:
        """True iff any ready stage could receive an executor right now —
        the engine's per-grant loop condition. Stops at the first job
        :meth:`assignable_jobs` yields."""
        return next(self.assignable_jobs(), None) is not None

    def queued_job_count(self) -> int:
        if self._active is not None:
            return len(self._active)
        return sum(1 for _ in self.active_jobs())
