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


def _sample_index(rng: np.random.Generator, p: np.ndarray) -> int:
    """``int(rng.choice(len(p), p=p))``, minus the validation overhead.

    The inverse-CDF draw at the core of ``Generator.choice``: one
    ``rng.random()`` against the normalized cumulative weights. A seeded
    policy's schedule therefore depends only on the generator's
    ``random()`` stream; ``tests/test_simulator_interfaces.py`` checks the
    index and the next draw against ``Generator.choice``.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


class NothingGrowable(enum.Enum):
    """Type of :data:`NOTHING_GROWABLE`."""

    NOTHING_GROWABLE = "nothing-growable"


#: A scheduler's "end the pass, but not a deferral" reply: stages are
#: assignable, yet the scheduler will grow none of them (a probabilistic
#: policy, or PCAPS, when every assignable stage already runs at its
#: parallelism limit). The engine ends the assignment pass without
#: counting a deferral, because nothing was held back for carbon.
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

    def reset(self) -> None:
        self._rng = np.random.default_rng(self._seed)

    @abc.abstractmethod
    def scores_from_arrays(
        self, view: ClusterView, frontier: FrontierArrays
    ) -> np.ndarray:
        """Unnormalized preference scores, one per row of ``frontier``.

        Must be a *pure function of the frontier matrix*
        (``frontier.data``): :meth:`_raw_scores` may cache scores per
        matrix object (Decima does), so scores that secretly read other
        view state would go stale.
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

    def parallelism_limits(
        self, view: ClusterView, frontier: FrontierArrays
    ) -> np.ndarray:
        """The parallelism limit of every row's stage, as one column
        (default: all its tasks).

        The one definition of the policy's limit: :meth:`select` masks its
        draw with this column (scaled by the provisioner) and PCAPS with
        its carbon-reduced ``P'`` of it, and both hand the drawn row's
        value to the engine as the choice's ``parallelism_limit``.
        """
        return frontier.num_tasks

    def _softmax(self, raw: np.ndarray) -> np.ndarray:
        """Temperature-scaled softmax, shared by :meth:`select` and
        :meth:`sample_row`.

        One function on purpose: the float operation order fixes every
        probability, and with it the seeded schedule.
        """
        scaled = raw / self.temperature
        scaled -= np.maximum.reduce(scaled)
        np.exp(scaled, out=scaled)
        scaled /= np.add.reduce(scaled)
        return scaled

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
        The candidate mask selects which rows the draw may pick, never
        what the distribution is.
        """
        full = view.frontier_arrays(include_saturated=True)
        if candidates is None:
            candidates = (full.slots > 0).nonzero()[0]
        if candidates.size == 0:
            return None
        probs = self._softmax(self._checked_scores(view, full))
        pick = self._draw(probs, candidates)
        peak = np.maximum.reduce(probs)
        importance = float(probs[pick] / peak) if peak > 0 else 1.0
        return pick, importance

    def _draw(self, probs: np.ndarray, candidates: np.ndarray) -> int:
        """One draw from ``probs`` restricted to the rows ``candidates``:
        row ``i`` with weight ``probs[i] / sum(probs[candidates])``
        (uniform if that sum underflows to 0)."""
        weights = probs[candidates]
        total = np.add.reduce(weights)
        if total <= 0:
            weights = np.full(len(candidates), 1.0 / len(candidates))
        else:
            weights /= total
        return int(candidates[_sample_index(self._rng, weights)])

    def select(
        self, view: ClusterView
    ) -> StageChoice | NothingGrowable | None:
        """Draw one stage the engine will grow: a masked softmax draw.

        The softmax runs over the assignable rows with free slots. The
        draw keeps only those running fewer tasks than their
        :meth:`parallelism_limits` value scaled by the provisioner
        (:meth:`ClusterView.scaled_limits`), which is the limit the
        engine enforces on the grant. Capped rows keep their mass in the
        softmax, as under PCAPS, so the draw's weights are
        ``p[G] / sum(p[G])`` over the rows ``G`` that can grow. When none
        can, the pass ends without a draw (:data:`NOTHING_GROWABLE`), and
        a grant of the last row that can grow ends it too (``ends_pass``).
        """
        frontier = view.frontier_arrays()
        data = frontier.data
        free = data[:, FrontierArrays.SLOTS] > 0
        if not free.any():
            return None
        if not free.all():
            frontier = frontier.compress(free)
            data = frontier.data
        limits = self.parallelism_limits(view, frontier)
        growable = (
            data[:, FrontierArrays.RUNNING] < view.scaled_limits(limits)
        ).nonzero()[0]
        if growable.size == 0:
            return NOTHING_GROWABLE
        probs = self._softmax(self._checked_scores(view, frontier))
        row = self._draw(probs, growable)
        job_id, stage_id = data[row, :2].tolist()
        return StageChoice(
            job_id=int(job_id),
            stage_id=int(stage_id),
            parallelism_limit=int(limits[row]),
            ends_pass=growable.size == 1,
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

    def scale_parallelism_column(
        self, limits: np.ndarray, view: ClusterView
    ) -> np.ndarray:
        """:meth:`scale_parallelism` of every element of ``limits``.

        The engine hands this to its views, and the probabilistic
        schedulers mask their draws with it
        (:meth:`ClusterView.scaled_limits`); a subclass overriding one
        must override both with the same values, or the engine blocks
        the choices the mask let through. Default: identity.
        """
        return limits

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
