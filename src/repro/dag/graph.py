"""Immutable stage-DAG description of a data processing job."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import math


@dataclass(frozen=True)
class Stage:
    """One node of a job DAG: a set of identical parallelizable tasks.

    Parameters
    ----------
    stage_id:
        Identifier, unique within the job.
    num_tasks:
        Number of tasks in the stage; the stage's maximum useful parallelism.
    task_duration:
        Duration of one task on one executor, in simulated seconds.
    parents:
        Stage ids that must complete before this stage may start.
    name:
        Optional human-readable label (e.g. ``"q5-join"``).
    """

    stage_id: int
    num_tasks: int
    task_duration: float
    parents: tuple[int, ...] = ()
    name: str = ""

    def __post_init__(self) -> None:
        if self.num_tasks <= 0:
            raise ValueError(f"stage {self.stage_id}: num_tasks must be >= 1")
        if self.task_duration <= 0 or not math.isfinite(self.task_duration):
            raise ValueError(
                f"stage {self.stage_id}: task_duration must be finite and > 0"
            )
        if self.stage_id in self.parents:
            raise ValueError(f"stage {self.stage_id} cannot depend on itself")

    @property
    def work(self) -> float:
        """Total executor-seconds required: ``num_tasks * task_duration``."""
        return self.num_tasks * self.task_duration

    def duration_with(self, parallelism: int) -> float:
        """Stage duration when run with ``parallelism`` executors in waves."""
        if parallelism <= 0:
            raise ValueError("parallelism must be >= 1")
        waves = math.ceil(self.num_tasks / parallelism)
        return waves * self.task_duration


class JobDAG:
    """A validated DAG of :class:`Stage` objects.

    Construction validates uniqueness of stage ids, existence of all parent
    references, and acyclicity (via Kahn's algorithm, whose byproduct — a
    topological order — is cached).
    """

    #: :meth:`chain_map`'s cache. A class default, so a DAG that never
    #: asks for it (the greedy schedulers' jobs) pickles no extra field
    #: into a checkpoint.
    _chains: dict[int, float] | None = None

    def __init__(self, stages: Iterable[Stage], name: str = "") -> None:
        stage_list = list(stages)
        if not stage_list:
            raise ValueError("a job needs at least one stage")
        self._stages: dict[int, Stage] = {}
        for stage in stage_list:
            if stage.stage_id in self._stages:
                raise ValueError(f"duplicate stage id {stage.stage_id}")
            self._stages[stage.stage_id] = stage
        for stage in stage_list:
            for parent in stage.parents:
                if parent not in self._stages:
                    raise ValueError(
                        f"stage {stage.stage_id} references missing parent {parent}"
                    )
        self.name = name
        self._children: dict[int, tuple[int, ...]] = self._build_children()
        self._topo_order: tuple[int, ...] = self._toposort()
        self._topo_index: dict[int, int] | None = None
        self._descendant_work: dict[int, float] | None = None
        self._total_work = sum(s.work for s in self._stages.values())

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _build_children(self) -> dict[int, tuple[int, ...]]:
        children: dict[int, list[int]] = {sid: [] for sid in self._stages}
        for stage in self._stages.values():
            for parent in stage.parents:
                children[parent].append(stage.stage_id)
        return {sid: tuple(sorted(kids)) for sid, kids in children.items()}

    def _toposort(self) -> tuple[int, ...]:
        indegree = {sid: len(s.parents) for sid, s in self._stages.items()}
        frontier = sorted(sid for sid, deg in indegree.items() if deg == 0)
        order: list[int] = []
        while frontier:
            sid = frontier.pop(0)
            order.append(sid)
            for child in self._children[sid]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    frontier.append(child)
            frontier.sort()
        if len(order) != len(self._stages):
            raise ValueError(f"job {self.name!r} contains a dependency cycle")
        return tuple(order)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def stages(self) -> Mapping[int, Stage]:
        """Read-only mapping of stage id to :class:`Stage`."""
        return dict(self._stages)

    def stage(self, stage_id: int) -> Stage:
        return self._stages[stage_id]

    def __len__(self) -> int:
        return len(self._stages)

    def __contains__(self, stage_id: int) -> bool:
        return stage_id in self._stages

    def stage_ids(self) -> tuple[int, ...]:
        return tuple(self._stages)

    def children(self, stage_id: int) -> tuple[int, ...]:
        return self._children[stage_id]

    def parents(self, stage_id: int) -> tuple[int, ...]:
        return self._stages[stage_id].parents

    def roots(self) -> tuple[int, ...]:
        """Stages with no parents (initially runnable)."""
        return tuple(sid for sid, s in self._stages.items() if not s.parents)

    def leaves(self) -> tuple[int, ...]:
        """Stages with no children (the job finishes when these do)."""
        return tuple(sid for sid in self._stages if not self._children[sid])

    def topological_order(self) -> tuple[int, ...]:
        return self._topo_order

    def topological_index(self) -> Mapping[int, int]:
        """Stage id → position in :meth:`topological_order` (cached).

        The simulator keeps each job's ready frontier sorted by this index;
        caching the map here shares it across every runtime replica of the
        same DAG instead of rebuilding a dict per job arrival.
        """
        if self._topo_index is None:
            self._topo_index = {
                sid: i for i, sid in enumerate(self._topo_order)
            }
        return self._topo_index

    def descendant_work_map(self) -> Mapping[int, float]:
        """Stage id → total work gated behind it, including itself (cached).

        The DAG is immutable and :func:`repro.dag.metrics.descendant_work`
        ignores stage completion (it sums over *all* transitive
        descendants), so the per-stage totals are constants of the DAG.
        ``bottleneck_scores`` reads this map instead of re-running one
        reachability sweep per stage on every stage completion — the
        ROADMAP's O(S²)-per-completion hot spot. The cached values are
        produced by the identical per-stage traversal-and-sum the direct
        call runs, so scores stay bit-identical.
        """
        if self._descendant_work is None:
            from repro.dag.metrics import descendant_work

            self._descendant_work = {
                sid: descendant_work(self, sid) for sid in self._stages
            }
        return self._descendant_work

    def chain_map(self) -> Mapping[int, float]:
        """Stage id → longest dependency chain starting at it, in seconds,
        its own ``task_duration`` included (cached).

        ``bottleneck_scores`` needs each incomplete stage's longest chain
        through incomplete stages. Every descendant of an incomplete stage
        is incomplete too (a stage completes only after its parents), so
        that chain never changes while the stage is live: it is this
        constant, summed in the order the per-call walk used.
        """
        if self._chains is None:
            chains: dict[int, float] = {}
            for sid in reversed(self._topo_order):
                below = max(
                    (chains[c] for c in self._children[sid]), default=0.0
                )
                chains[sid] = self._stages[sid].task_duration + below
            self._chains = chains
        return self._chains

    @property
    def total_work(self) -> float:
        """Serial duration: total executor-seconds across all stages.

        Equals ``OPT_1``, the optimal single-machine makespan (no idling is
        ever forced with one machine — Appendix B.2.1). Computed once, at
        construction: the DAG is immutable.
        """
        return self._total_work

    def ready_after(self, completed: frozenset[int] | set[int]) -> tuple[int, ...]:
        """Stage ids whose parents are all in ``completed`` and that are not
        themselves completed — the frontier ``A_t`` of Definition 4.1."""
        done = set(completed)
        return tuple(
            sid
            for sid in self._topo_order
            if sid not in done and all(p in done for p in self._stages[sid].parents)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"JobDAG(name={self.name!r}, stages={len(self)}, "
            f"work={self.total_work:.0f}s)"
        )


# ----------------------------------------------------------------------
# Small canonical shapes used in tests, examples, and the Fig. 1 bench
# ----------------------------------------------------------------------
def chain_dag(
    lengths: Iterable[float], num_tasks: int = 1, name: str = "chain"
) -> JobDAG:
    """A linear chain of stages with the given per-task durations."""
    durations = list(lengths)
    stages = [
        Stage(
            stage_id=i,
            num_tasks=num_tasks,
            task_duration=d,
            parents=(i - 1,) if i else (),
        )
        for i, d in enumerate(durations)
    ]
    return JobDAG(stages, name=name)


def fork_join_dag(
    branch_durations: Iterable[float],
    source_duration: float = 1.0,
    sink_duration: float = 1.0,
    num_tasks: int = 1,
    name: str = "fork-join",
) -> JobDAG:
    """One source, parallel branches, one sink — a map/reduce skeleton."""
    branches = list(branch_durations)
    if not branches:
        raise ValueError("need at least one branch")
    stages = [Stage(0, num_tasks, source_duration)]
    for i, duration in enumerate(branches, start=1):
        stages.append(Stage(i, num_tasks, duration, parents=(0,)))
    sink_id = len(branches) + 1
    stages.append(
        Stage(sink_id, num_tasks, sink_duration, parents=tuple(range(1, sink_id)))
    )
    return JobDAG(stages, name=name)


def diamond_dag(
    top: float = 1.0,
    left: float = 1.0,
    right: float = 1.0,
    bottom: float = 1.0,
    num_tasks: int = 1,
    name: str = "diamond",
) -> JobDAG:
    """The four-stage diamond: 0 -> {1, 2} -> 3."""
    return JobDAG(
        [
            Stage(0, num_tasks, top),
            Stage(1, num_tasks, left, parents=(0,)),
            Stage(2, num_tasks, right, parents=(0,)),
            Stage(3, num_tasks, bottom, parents=(1, 2)),
        ],
        name=name,
    )
