"""Scheduler and provisioner interfaces.

Two orthogonal extension points mirror the paper's architecture:

- a :class:`StageScheduler` decides *which ready stage* gets executors next
  (Spark's stage scheduling); :class:`ProbabilisticPolicy` is the
  Definition 4.1 refinement that PCAPS wraps;
- a :class:`Provisioner` decides *how many executors the whole cluster may
  use* (CAP's resource quota, GreenHadoop's window-derived limit), enforced
  by the engine without preemption.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass

import numpy as np

from repro.simulator.state import ClusterView, FrontierArrays, ReadyStage


def _verify_inline_choice() -> bool:
    """Check that the inlined sampler reproduces ``Generator.choice``.

    The sampling entry points inline the cumsum/searchsorted core of
    ``Generator.choice(n, p=...)`` to skip its per-call validation
    overhead. The inline is only used when this probe — a spread of sizes,
    skews, and seeds, including the post-draw generator state — confirms
    the installed numpy's ``choice`` consumes and transforms randomness
    the same way; otherwise the real method is called and only the
    validation savings are lost.
    """
    probe = np.random.default_rng(0)
    for _ in range(64):
        n = int(probe.integers(1, 40))
        weights = probe.random(n) ** 2 + 1e-12
        p = weights / weights.sum()
        seed = int(probe.integers(0, 2**31))
        real, ours = np.random.default_rng(seed), np.random.default_rng(seed)
        cdf = p.cumsum()
        cdf /= cdf[-1]
        if int(real.choice(n, p=p)) != int(
            cdf.searchsorted(ours.random(), side="right")
        ):
            return False
        if real.random() != ours.random():
            return False
    return True


_INLINE_CHOICE_OK: bool | None = None


def _sample_index(rng: np.random.Generator, p: np.ndarray) -> int:
    """``int(rng.choice(len(p), p=p))``, minus the validation overhead.

    Bit-identical to the real call (same cdf arithmetic, same single
    ``rng.random()`` draw), enforced by :func:`_verify_inline_choice` once
    per process with automatic fallback — so a seeded policy draws the
    same schedule whether or not the inline is in use.
    """
    global _INLINE_CHOICE_OK
    if _INLINE_CHOICE_OK is None:
        _INLINE_CHOICE_OK = _verify_inline_choice()
    if _INLINE_CHOICE_OK:
        cdf = p.cumsum()
        cdf /= cdf[-1]
        return int(cdf.searchsorted(rng.random(), side="right"))
    return int(rng.choice(len(p), p=p))


class NothingGrowable(enum.Enum):
    """Type of :data:`NOTHING_GROWABLE`."""

    NOTHING_GROWABLE = "nothing-growable"


#: A scheduler's "end the pass, but not a deferral" reply: stages are
#: assignable, yet the scheduler will grow none of them (PCAPS when every
#: assignable stage already runs at its parallelism limit ``P'``). The
#: engine ends the assignment pass without counting a deferral, because
#: nothing was held back for carbon.
NOTHING_GROWABLE = NothingGrowable.NOTHING_GROWABLE


@dataclass(frozen=True)
class StageChoice:
    """A scheduler's decision: grow this stage, up to this parallelism.

    ``parallelism_limit`` bounds the stage's *concurrent* executors (running
    plus newly assigned); ``None`` means "no limit beyond the task count".
    ``ends_pass`` says the scheduler will grow nothing else this assignment
    pass once this stage has its executors, so the engine ends the pass
    after the grant instead of asking again.
    """

    job_id: int
    stage_id: int
    parallelism_limit: int | None = None
    ends_pass: bool = False


class StageScheduler(abc.ABC):
    """Picks one ready stage per call; the engine loops until executors run
    out, the scheduler declines (returns ``None``), or nothing is ready."""

    #: Display name used in result tables.
    name: str = "scheduler"

    #: Spark standalone semantics: executors granted to a job stay bound to
    #: it (idle but unavailable, still drawing power) until the job
    #: completes. Appendix A.1.2 attributes FIFO's inflated JCT *and* carbon
    #: footprint in the simulator to exactly this hoarding; dynamic-
    #: allocation schedulers (Decima, the Kubernetes default) release
    #: executors after each task.
    holds_executors: bool = False

    @abc.abstractmethod
    def select(
        self, view: ClusterView
    ) -> StageChoice | NothingGrowable | None:
        """Choose a stage to receive executors, or ``None`` to idle.

        Returning ``None`` leaves all remaining free executors idle until
        the next scheduling event (job arrival, task completion, or carbon
        step) — the deferral mechanism of Algorithm 1. Returning
        :data:`NOTHING_GROWABLE` also ends the pass, but is not counted as
        a deferral.
        """

    def select_gen(
        self, view: ClusterView
    ) -> StageChoice | NothingGrowable | None:
        """The engine's call into :meth:`select`; never override it.

        It only forwards. It exists because the benchmark's traced run
        (``perfbench/bench_trace.py``) counts its ``sched.select`` layer by
        wrapping this name on each scheduler class: were the engine to call
        :meth:`select` directly, that layer would count 0 calls.
        """
        return self.select(view)

    def reset(self) -> None:
        """Clear any per-experiment state (default: stateless)."""


class ProbabilisticPolicy(StageScheduler):
    """A Definition 4.1 scheduler: emits a distribution over ready stages.

    Subclasses implement :meth:`scores_from_arrays`, one score per row of
    the columnar frontier (:class:`~repro.simulator.state.FrontierArrays`);
    the base class converts scores to a masked-softmax distribution,
    samples from it, and exposes both — which is exactly the interface
    PCAPS consumes (probabilities plus a sampled node).
    """

    def __init__(self, seed: int | None = 0, temperature: float = 1.0) -> None:
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        self.temperature = temperature
        self._seed = seed
        self._rng = np.random.default_rng(seed)
        # (matrix object, probs) of the last frontier scored; see
        # sample_row.
        self._dist_cache: tuple | None = None

    def reset(self) -> None:
        self._rng = np.random.default_rng(self._seed)
        self._dist_cache = None

    @abc.abstractmethod
    def scores_from_arrays(
        self, view: ClusterView, frontier: FrontierArrays
    ) -> np.ndarray:
        """Unnormalized preference scores, one per row of ``frontier``.

        Must be a *pure function of the frontier matrix*
        (``frontier.data``): the sampling entry points cache the scored
        distribution per matrix object, so scores that secretly read
        other view state would go stale.
        """

    def _raw_scores(
        self, view: ClusterView, frontier: FrontierArrays
    ) -> np.ndarray:
        """Hook between the sampling entry points and
        :meth:`scores_from_arrays`; subclasses may interpose caching (see
        :class:`~repro.schedulers.decima.DecimaScheduler`)."""
        return self.scores_from_arrays(view, frontier)

    def _checked_scores(
        self, view: ClusterView, frontier: FrontierArrays
    ) -> np.ndarray:
        """:meth:`_raw_scores`, rejecting a vector that is not one score
        per row: a longer one would skew the importance maximum with rows
        that do not exist, or draw an index past the frontier."""
        raw = self._raw_scores(view, frontier)
        if raw.shape != (len(frontier),):
            raise ValueError(
                f"scores_from_arrays returned shape {raw.shape} for "
                f"{len(frontier)} frontier rows"
            )
        return raw

    def parallelism_limit(self, view: ClusterView, choice: ReadyStage) -> int:
        """Parallelism limit for a chosen stage (default: all its tasks)."""
        return choice.stage.num_tasks

    def parallelism_limits(
        self, view: ClusterView, frontier: FrontierArrays
    ) -> np.ndarray:
        """:meth:`parallelism_limit` of every row's stage, as one column.

        PCAPS masks its draw with this column and limits the sampled stage
        to the same column's value, while :meth:`select` limits its choice
        with :meth:`parallelism_limit`; a subclass overriding one must
        override both to give each stage the same value. Under PCAPS the
        column alone binds: a stage may grow to the value it states.
        """
        return frontier.num_tasks

    def _softmax(self, raw: np.ndarray) -> np.ndarray:
        """Temperature-scaled softmax, shared by :meth:`select` and
        :meth:`sample_row`.

        One function on purpose: the float operation order fixes every
        probability, and with it the seeded schedule.
        """
        scaled = raw / self.temperature
        scaled -= scaled.max()
        weights = np.exp(scaled)
        return weights / weights.sum()

    def sample_with_importance(
        self, view: ClusterView, candidates: np.ndarray | None = None
    ) -> tuple[ReadyStage, float] | None:
        """Sample an assignable stage plus its Definition 4.2 importance:
        :meth:`sample_row` with the drawn row as a :class:`ReadyStage`."""
        drawn = self.sample_row(view, candidates)
        if drawn is None:
            return None
        row, importance = drawn
        return view.frontier_arrays(include_saturated=True).entry(row), importance

    def sample_row(
        self, view: ClusterView, candidates: np.ndarray | None = None
    ) -> tuple[int, float] | None:
        """Sample an assignable stage: its row and Definition 4.2 importance.

        The row indexes ``view.frontier_arrays(include_saturated=True)``.
        The distribution is computed over the *full* frontier ``A_t``
        (including stages whose tasks are all in flight — they carry
        probability mass and anchor the normalization) while sampling is
        restricted to ``candidates``, mirroring Decima's action mask.
        ``candidates`` are row indices of
        ``view.frontier_arrays(include_saturated=True)`` (PCAPS passes the
        stages below their parallelism limit); the default is every row
        with free slots. Returns ``None`` when there are no candidates.

        The distribution is cached per frontier matrix object, so deferral
        streaks re-sampling an unchanged frontier and PCAPS redraws only
        advance the RNG. The candidate mask selects which rows the draw
        may pick, never what the distribution is.
        """
        full = view.frontier_arrays(include_saturated=True)
        if candidates is None:
            candidates = np.flatnonzero(full.slots > 0)
        if candidates.size == 0:
            return None
        cache = self._dist_cache
        if cache is not None and cache[0] is full.data:
            # Same matrix object as the last call (nothing launched or
            # finished in between — e.g. a deferral streak across carbon
            # steps): the distribution is unchanged; only the RNG advances.
            return self._finish_sample(full, cache[1], candidates)
        probs = self._softmax(self._checked_scores(view, full))
        # Only unfiltered matrices repeat across calls (mid-pass filtered
        # retries are one-shot); caching them would evict the reusable
        # entry.
        if full.parent_data is None:
            self._dist_cache = (full.data, probs)
        return self._finish_sample(full, probs, candidates)

    def _finish_sample(
        self,
        full: FrontierArrays,
        probs: np.ndarray,
        candidates: np.ndarray,
    ) -> tuple[int, float]:
        """The action-mask tail of :meth:`sample_row`:
        renormalize the candidate slice, draw, compute the Definition 4.2
        importance over the whole frontier. Cache hits and misses share it,
        so both take the same float operations in the same order."""
        weights = probs[candidates]
        total = weights.sum()
        if total <= 0:
            weights = np.full(len(candidates), 1.0 / len(candidates))
        else:
            weights = weights / total
        pick = int(candidates[_sample_index(self._rng, weights)])
        peak = probs.max()
        importance = float(probs[pick] / peak) if peak > 0 else 1.0
        return pick, importance

    def select(self, view: ClusterView) -> StageChoice | None:
        frontier = view.frontier_arrays()
        mask = frontier.slots > 0
        if not mask.any():
            return None
        if not mask.all():
            frontier = frontier.compress(mask)
        probs = self._softmax(self._checked_scores(view, frontier))
        chosen = frontier.entry(_sample_index(self._rng, probs))
        return StageChoice(
            job_id=chosen.job_id,
            stage_id=chosen.stage_id,
            parallelism_limit=self.parallelism_limit(view, chosen),
        )


class Provisioner(abc.ABC):
    """Computes the cluster-wide executor quota at a point in time."""

    name: str = "provisioner"

    @abc.abstractmethod
    def quota(self, view: ClusterView) -> int:
        """Maximum number of busy executors allowed at ``view.time``.

        The engine enforces the quota without preemption: running tasks
        always finish, but no new assignment is made while ``busy >= quota``.
        """

    def scale_parallelism(self, limit: int, view: ClusterView) -> int:
        """Optionally shrink a scheduler-chosen parallelism limit.

        Default: identity. CAP overrides this with ``ceil(P * r(t)/K)``
        (Section 5.1, "Setting level of parallelism").
        """
        return limit

    def reset(self) -> None:
        """Clear any per-experiment state (default: stateless)."""


class StaticProvisioner(Provisioner):
    """A fixed quota — useful for tests and for modelling smaller clusters."""

    def __init__(self, quota: int) -> None:
        if quota < 1:
            raise ValueError("quota must be >= 1")
        self._quota = quota
        self.name = f"static({quota})"

    def quota(self, view: ClusterView) -> int:
        return self._quota
