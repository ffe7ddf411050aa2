"""Runtime cluster state and the read-only view handed to schedulers.

The structures here sit on the engine's hottest path: every scheduling
step builds one :class:`ClusterView`, advanced in place after each executor
grant, and every ``select`` walks the ready frontier; schedulers
query per-job aggregates (remaining work, bottleneck scores) on each
``select`` call. To keep a trial's cost near O(events) instead of
O(events × jobs × stages), :class:`JobRuntime` maintains its frontier
incrementally (updated on stage completion rather than re-derived from the
DAG per call) and memoizes the per-job aggregates behind monotone version
counters, so cached values are the exact floats a from-scratch recompute
would produce — simulation results stay bit-identical.

The probabilistic schedulers (Decima, PCAPS) score and sample the whole
frontier ``A_t`` as the columnar :class:`FrontierArrays` of
:meth:`ClusterView.frontier_arrays`, served from the engine's
:class:`FrontierTable`. The greedy baselines (FIFO, the Kubernetes
default, weighted-fair) only pick a job and grow its first assignable
stage, so they use the cache-free walk :meth:`ClusterView.assignable_jobs`;
its first item, :meth:`ClusterView.first_assignable`, is memoized until
the view changes and serves as both the engine's loop condition and
FIFO's choice.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, NamedTuple

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
      copied once per block rebuild);
    - the instance is immutable once handed to a scheduler.
    """

    __slots__ = ("data", "_jobs")

    #: Column indices of :attr:`data`.
    JOB_ID, STAGE_ID, UNLAUNCHED, RUNNING, SLOTS = 0, 1, 2, 3, 4
    BOTTLENECK, REMAINING_WORK, EXECUTORS_IN_USE, NUM_TASKS = 5, 6, 7, 8
    NUM_COLS = 9

    def __init__(
        self, data: np.ndarray, jobs: Mapping[int, "JobRuntime"]
    ) -> None:
        self.data = data
        self._jobs = jobs

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
        return FrontierArrays(self.data[mask], self._jobs)

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
        (`ClusterView.frontier_arrays` served from a :class:`FrontierTable`)
        must always produce the matrix this builds from a cache-free entry
        walk. The per-job aggregates come from the same memoized accessors
        the incremental path reads, so both constructions yield identical
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


def _row_counts(runtime: StageRuntime) -> tuple[int, int, int]:
    """A stage's ``unlaunched``, ``running`` and ``slots`` cells in its
    job's block, with ``slots`` left equal to ``unlaunched``."""
    unlaunched = runtime.stage.num_tasks - runtime.launched
    return unlaunched, runtime.launched - runtime.finished, unlaunched


def _job_block(job: JobRuntime) -> np.ndarray:
    """``job``'s rows of the full frontier, with ``slots`` equal to
    ``unlaunched`` (no executor budget applied)."""
    job_id = job.job_id
    stages = job.stages
    remaining = job.remaining_work()
    in_use = job.executors_in_use
    bottlenecks = job.bottleneck_scores()
    rows = []
    for sid in job.ready_stage_ids(include_running=True):
        runtime = stages[sid]
        rows.append(
            (
                job_id,
                sid,
                *_row_counts(runtime),
                bottlenecks.get(sid, 0.0),
                remaining,
                in_use,
                runtime.stage.num_tasks,
            )
        )
    return np.array(rows, dtype=float) if rows else _EMPTY_FRONTIER


def _patch_block(
    block: np.ndarray, job: JobRuntime, stage_ids: set[int]
) -> None:
    """Bring ``job``'s block up to date, in place, after launches and
    finishes on ``stage_ids``, none of which completed a stage.

    Writes the cells :func:`_job_block` would compute differently: each
    stage's :func:`_row_counts`, and the job's ``remaining_work`` and
    ``executors_in_use``. The rows and their bottleneck scores change
    only when a stage completes, which rebuilds the block instead.
    """
    frontier = job.ready_stage_ids(include_running=True)
    stages = job.stages
    counts = slice(FrontierArrays.UNLAUNCHED, FrontierArrays.SLOTS + 1)
    for sid in stage_ids:
        block[frontier.index(sid), counts] = _row_counts(stages[sid])
    block[:, FrontierArrays.REMAINING_WORK] = job.remaining_work()
    block[:, FrontierArrays.EXECUTORS_IN_USE] = job.executors_in_use


class FrontierTable:
    """The frontier matrix, one block per active job, patched per touched job.

    A job's block is its rows of the full frontier (Definition 4.1's
    ``A_t``, ``include_saturated=True``) with ``slots`` left equal to
    ``unlaunched``; the active jobs' blocks in arrival order make up one
    ``(n, 9)`` matrix. The engine owns one table per run and tells it
    about every event that can change a job's rows, in one of two ways:

    - :meth:`touch` after a grant or a task finish: one stage's task
      counts and its job's aggregates changed. The next refresh rebuilds
      the job's block if the stage completed (its row leaves, and its
      children's may come), and otherwise writes only that row's
      ``unlaunched``, ``running`` and ``slots`` cells and the job's
      ``remaining_work`` and ``executors_in_use`` cells;
    - :meth:`mark` after an arrival, a preemption or a withdrawal: the
      next refresh rebuilds the job's block from its runtime.

    When every changed block keeps its row count it is written over its
    rows in a copy of the previous matrix; only when rows come or go
    (arrivals, stage and job completions, withdrawals) are the cached
    blocks concatenated again. So a grant costs a few cell writes, not
    O(active jobs).

    The assignable frontier (``include_saturated=False``) is the full
    matrix's rows with unlaunched tasks, derived once per matrix. A view
    clamps ``slots`` to its executor budget through :meth:`serve`: a
    budget at or above every ``unlaunched`` count clamps nothing and gets
    the unclamped matrix itself, and a clamped matrix is memoized per
    (matrix, budget). An unchanged frontier under an unchanged budget is
    therefore the same matrix object, which keeps the score cache of the
    probabilistic schedulers (keyed by matrix identity) hitting; a
    changed one is always a new object, never one written in place.

    Marks and touches are ignored until the table first serves, so a run
    that never asks for the frontier (the greedy schedulers) holds no
    dirty ids. The table is a pure accelerator: every served matrix
    equals a from-scratch walk bit for bit, and a pickled table (a
    checkpoint's) comes back empty.
    """

    __slots__ = (
        "_blocks", "_offsets", "_dirty", "_touched", "_full", "_saturation",
        "_assignable", "_served",
    )

    def __init__(self) -> None:
        #: job id -> its block, for every job with rows in :attr:`_full`
        #: (plus, until the next refresh, jobs finished since the last).
        self._blocks: dict[int, np.ndarray] = {}
        #: job id -> index of its block's first row in :attr:`_full`.
        self._offsets: dict[int, int] = {}
        #: Jobs whose rows may have changed since the last refresh.
        self._dirty: set[int] = set()
        #: job id -> stages whose task counts changed since the last
        #: refresh, with no row added or removed.
        self._touched: dict[int, set[int]] = {}
        #: The full frontier matrix; ``None`` until the first refresh.
        self._full: np.ndarray | None = None
        #: Largest ``unlaunched`` in :attr:`_full`: no budget at or above
        #: it clamps anything.
        self._saturation = 0.0
        #: (full matrix, its rows with unlaunched tasks).
        self._assignable: tuple[np.ndarray, np.ndarray] | None = None
        #: include_saturated -> (unclamped matrix, budget, clamped matrix).
        self._served: dict[bool, tuple] = {}

    def __reduce__(self):
        # Checkpoints drop the table: it unpickles empty and rebuilds on
        # first use, rather than carrying numpy blocks.
        return (FrontierTable, ())

    def mark(self, job_id: int) -> None:
        """Engine-only: ``job_id``'s frontier rows may have changed."""
        if self._full is not None:
            self._dirty.add(job_id)

    def touch(self, job_id: int, stage_id: int) -> None:
        """Engine-only: ``stage_id`` of ``job_id`` launched or finished a
        task. The refresh patches its row, or rebuilds the job's block if
        the stage (or the job) completed."""
        if self._full is not None:
            touched = self._touched.get(job_id)
            if touched is None:
                self._touched[job_id] = {stage_id}
            else:
                touched.add(stage_id)

    def serve(
        self,
        active: Mapping[int, JobRuntime],
        include_saturated: bool,
        budget: int | dict[int, int],
        stats=None,
    ) -> np.ndarray:
        """One view's frontier matrix, ``slots`` clamped to ``budget``.

        ``active`` maps the not-yet-finished jobs in arrival order.
        ``budget`` is the executor budget every job shares (an int), or a
        ``{job_id: budget}`` mapping when budgets differ per job (a
        per-job cap, hoarded reservations); a row's ``slots`` is
        ``min(unlaunched, its job's budget)``. ``stats`` is the optional
        :class:`~repro.obs.observer.FrontierCacheStats` to count into.
        """
        full = self._refresh(active, stats)
        if include_saturated:
            raw = full
        else:
            derived = self._assignable
            if derived is None or derived[0] is not full:
                keep = full[:, FrontierArrays.UNLAUNCHED] > 0
                derived = (full, full if keep.all() else full[keep])
                self._assignable = derived
            raw = derived[1]
        per_job = isinstance(budget, dict)
        lowest = min(budget.values(), default=0) if per_job else budget
        if lowest >= self._saturation:
            return raw
        served = self._served.get(include_saturated)
        if served is not None and served[0] is raw and served[1] == budget:
            return served[2]
        out = raw.copy()
        slots = out[:, FrontierArrays.SLOTS]
        if per_job:
            job_ids = raw[:, FrontierArrays.JOB_ID].tolist()
            np.minimum(slots, [budget[j] for j in job_ids], out=slots)
        else:
            np.minimum(slots, budget, out=slots)
        self._served[include_saturated] = (raw, budget, out)
        return out

    def _refresh(
        self, active: Mapping[int, JobRuntime], stats
    ) -> np.ndarray:
        """Bring the full matrix up to date with the dirty and touched
        jobs."""
        full = self._full
        dirty = self._dirty
        touched = self._touched
        if full is not None and not dirty and not touched:
            if stats is not None:
                stats.matrix_hits.inc()
            return full
        blocks = self._blocks
        # A touched stage that completed took its row with it (and the
        # job, if it was the last): rebuild the job. Otherwise only
        # counts moved: patch.
        patches = []
        for job_id, stage_ids in touched.items():
            if job_id in dirty:
                continue
            job = active.get(job_id)
            if job is None or not stage_ids.isdisjoint(job.completed_stages):
                dirty.add(job_id)
            else:
                patches.append((job_id, job, stage_ids))
        # The first refresh builds every active job's block.
        reshape = full is None
        changed = []
        for job_id in list(active) if full is None else dirty:
            job = active.get(job_id)
            if job is None:
                # Finished or withdrawn: its rows leave the matrix.
                if blocks.pop(job_id, None) is not None:
                    reshape = True
                continue
            block = _job_block(job)
            old = blocks.get(job_id)
            if old is None or len(old) != len(block):
                reshape = True
            blocks[job_id] = block
            changed.append((job_id, block))
        for job_id, job, stage_ids in patches:
            block = blocks[job_id]
            _patch_block(block, job, stage_ids)
            changed.append((job_id, block))
        dirty.clear()
        touched.clear()
        if reshape:
            offsets = self._offsets = {}
            parts = []
            row = 0
            for job_id in active:
                block = blocks[job_id]
                offsets[job_id] = row
                row += len(block)
                parts.append(block)
            full = np.concatenate(parts) if parts else _EMPTY_FRONTIER
        elif changed:
            # Copy on write: a served matrix is never changed in place,
            # so caches keyed by its identity stay sound.
            full = full.copy()
            offsets = self._offsets
            for job_id, block in changed:
                start = offsets[job_id]
                full[start : start + len(block)] = block
        if full is not self._full:
            self._full = full
            self._saturation = (
                float(np.maximum.reduce(full[:, FrontierArrays.UNLAUNCHED]))
                if len(full)
                else 0.0
            )
        if stats is not None:
            stats.matrix_misses.inc()
            stats.column_misses.inc(len(changed))
            stats.column_hits.inc(len(active) - len(changed))
        return full


#: :attr:`ClusterView._first` before the walk has run.
_UNWALKED = object()


class ClusterView:
    """The cluster as a scheduler sees it during one ``select`` call.

    Exposes everything Definition 4.1's schedulers and the carbon-aware
    wrappers need: the frontier of ready stages, executor occupancy, the
    current carbon reading, and per-job progress.

    A view is valid for one ``select`` call. The engine builds one view per
    scheduling step and, between ``select`` calls of the step's assignment
    pass, updates it in place: :meth:`set_quota` once the provisioner has
    set the pass's quota, :meth:`block` after a choice it could not grow,
    :meth:`advance` after each grant. Each of these drops what the view
    derived (frontier arrays, :meth:`first_assignable`), so within one
    ``select`` call nothing the view reports changes and the view may
    cache. Schedulers must treat the view as read-only and must not keep
    it, or anything it returned, past the call.

    The engine hands every view of a run its :class:`FrontierTable`, so a
    view's frontier costs only the rebuild of the jobs touched since the
    previous frontier. A view built without one (tests, hand-built views)
    builds its frontier from scratch through a private table, dropped
    whenever the view advances.
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
        frontier_table: FrontierTable | None = None,
        cache_stats=None,
        parallelism_scale: (
            Callable[[np.ndarray, "ClusterView"], np.ndarray] | None
        ) = None,
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
        #: The engine's frontier table, shared by every view of one run;
        #: ``None`` builds a private one on first use.
        self._table = frontier_table
        self._own_table = frontier_table is None
        self._fa_cache: dict[bool, FrontierArrays] = {}
        #: :meth:`first_assignable`'s result, or :data:`_UNWALKED`.
        self._first = _UNWALKED
        #: Blocked pairs in arrival order plus the boolean masks already
        #: derived from them, so each block() retry extends the previous
        #: mask with one pair instead of re-deriving the conjunction.
        self._blocked_seq: list[tuple[int, int]] = list(blocked)
        self._mask_state: dict[bool, tuple] = {}
        #: Optional :class:`repro.obs.observer.FrontierCacheStats` from the
        #: owning stepper: the table's block and matrix hit/miss counters.
        #: ``None`` (collection off, or hand-built views) counts nothing.
        self._cache_stats = cache_stats
        #: The provisioner's parallelism rule in columnar form,
        #: ``(limits, view) -> scaled limits`` (its
        #: ``scale_parallelism_column``); ``None`` without a provisioner.
        self._parallelism_scale = parallelism_scale
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

    def scaled_limits(self, limits: np.ndarray) -> np.ndarray:
        """The limit the engine enforces on a choice whose
        ``parallelism_limit`` is each element of ``limits``: the
        provisioner's scale of it, and at least 1."""
        scale = self._parallelism_scale
        if scale is not None:
            limits = scale(limits, self)
        return np.maximum(limits, 1)

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

        Served from the :class:`FrontierTable`, which rebuilds only the
        jobs touched since its previous serve; this view supplies the
        executor budget ``slots`` is clamped to. Cached until the view
        changes.
        """
        cached = self._fa_cache.get(include_saturated)
        if cached is not None:
            return cached
        table = self._table
        if table is None:
            # Private: _drop_derived() discards it, since no engine marks
            # reach it.
            table = self._table = FrontierTable()
        active = self._active
        if active is None:
            active = {job.job_id: job for job in self.active_jobs()}
        quota_room = max(0, self.quota - self.busy_executors)
        general_free = self.general_free
        reserved_free = self.reserved_free
        per_job_cap = self.per_job_cap
        if per_job_cap is None and not reserved_free:
            # Every job shares one budget: the common case.
            budget = min(quota_room, general_free)
        else:
            budget = {}
            for job_id, job in active.items():
                cap = min(quota_room, general_free + reserved_free.get(job_id, 0))
                if per_job_cap is not None:
                    cap = min(cap, max(0, per_job_cap - job.executors_in_use))
                budget[job_id] = cap
        data = table.serve(
            active, include_saturated, budget, self._cache_stats
        )
        return self._finish_frontier(data, include_saturated)

    def _finish_frontier(
        self, data: np.ndarray, include_saturated: bool
    ) -> FrontierArrays:
        """Apply the per-pass blocked filter and cache the result per view.

        Entries blocked earlier in this scheduling pass are dropped at the
        view level, so the table's blocks and served matrices stay valid
        while anything is blocked. The blocked set is tiny; the mask
        conjunction is order-independent.
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
            out = FrontierArrays(data[mask], self._jobs)
        else:
            out = FrontierArrays(data, self._jobs)
        self._fa_cache[include_saturated] = out
        return out

    # -- engine-only updates between select calls -----------------------
    def block(self, job_id: int, stage_id: int) -> None:
        """Engine-only: add one blocked entry and invalidate view caches.

        Between a blocked choice and the next ``select`` retry nothing in
        the cluster changes except the blocked set, so the engine records
        the block here; both :meth:`frontier_arrays` and
        :meth:`assignable_jobs` then skip the pair. The frontier rows do
        not change, so a private table is kept. Schedulers must never call
        this.
        """
        self._blocked = frozenset((*self._blocked, (job_id, stage_id)))
        self._blocked_seq.append((job_id, stage_id))
        self._fa_cache.clear()
        self._first = _UNWALKED

    def set_quota(self, quota: int) -> None:
        """Engine-only: the pass's quota, once the provisioner has read
        this view under the quota it was built with."""
        self.quota = quota
        self._drop_derived()

    def advance(
        self,
        busy_executors: int,
        general_free: int,
        job_id: int,
        job_reserved: int,
    ) -> None:
        """Engine-only: the occupancy after a grant to ``job_id``.

        A grant moves executors from the shared pool and ``job_id``'s
        reserved ones to work, and changes ``job_id``'s frontier rows
        (the engine touches the stage's row in its table); nothing else a view
        reports changes. ``job_reserved`` is the job's remaining reserved
        count. The blocked set carries over, as it does across the
        grants of one pass.
        """
        self.busy_executors = busy_executors
        self.general_free = general_free
        if job_reserved:
            self.reserved_free[job_id] = job_reserved
        else:
            self.reserved_free.pop(job_id, None)
        self._drop_derived()

    def _drop_derived(self) -> None:
        """Forget everything computed from occupancy, quota or frontier
        rows. A private table saw none of the engine's marks, so it goes
        too."""
        self._fa_cache.clear()
        self._first = _UNWALKED
        if self._own_table:
            self._table = None

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

    def first_assignable(self) -> tuple[JobRuntime, int] | None:
        """The first item of :meth:`assignable_jobs`, or ``None``.

        Memoized until the view changes, so the engine's loop condition
        (:meth:`has_assignable`) and FIFO's choice share one walk.
        """
        first = self._first
        if first is _UNWALKED:
            first = self._first = next(self.assignable_jobs(), None)
        return first

    def has_assignable(self) -> bool:
        """True iff any ready stage could receive an executor right now —
        the engine's loop condition before each ``select``."""
        return self.first_assignable() is not None

    def queued_job_count(self) -> int:
        if self._active is not None:
            return len(self._active)
        return sum(1 for _ in self.active_jobs())
