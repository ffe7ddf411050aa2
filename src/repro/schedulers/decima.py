"""Probabilistic surrogate for Decima [Mao et al., SIGCOMM'19].

The paper interfaces PCAPS with Decima, an RL scheduler whose GNN policy
emits scores over ready stages; a masked softmax turns the scores into the
Definition 4.1 distribution. Training a GNN is out of scope here (and
unnecessary: PCAPS consumes only the distribution), so this surrogate
reproduces the *behavioural profile* the Decima paper reports its trained
policy learns:

1. **SRPT bias** — favour stages of jobs with little remaining work, which
   is the main source of Decima's average-JCT improvement over FIFO/fair
   (Mao et al., Section 7.2 observe learned SRPT-like behaviour).
2. **Bottleneck awareness** — favour stages that gate the most downstream
   work (critical-path pressure), so bottleneck stages receive probability
   mass — the property PCAPS's relative-importance metric relies on.
3. **Locality** — a small bonus for jobs that already hold executors,
   modelling Decima's learned avoidance of executor-movement costs.
4. **Moderated parallelism** — Decima learns per-job parallelism limits
   instead of grabbing whole stages; the surrogate divides the cluster among
   active jobs.

Scores are combined linearly and softmaxed with a temperature; sampling uses
a seeded generator, so experiments are reproducible.

Scoring is one array expression per term over the columnar frontier
(:class:`~repro.simulator.state.FrontierArrays`). Its per-job aggregate
columns (remaining work, bottleneck scores) are copied from the memoized
:class:`~repro.simulator.state.JobRuntime` accessors, which are
invalidated only on task finish / stage completion — so repeated ``select``
calls within one scheduling event reuse them instead of recomputing
O(stages²) DAG metrics per executor grant.
"""

from __future__ import annotations

import math

import numpy as np

from repro.simulator.interfaces import ProbabilisticPolicy
from repro.simulator.state import ClusterView, FrontierArrays


class DecimaScheduler(ProbabilisticPolicy):
    """Decima-like probabilistic stage scheduler (Definition 4.1).

    Parameters
    ----------
    seed:
        Seed for action sampling.
    temperature:
        Softmax temperature; lower is greedier (the paper samples from the
        softmax, as we do).
    srpt_weight / bottleneck_weight / locality_weight:
        Coefficients of the three learned biases described above.
    """

    name = "decima"

    def __init__(
        self,
        seed: int | None = 0,
        temperature: float = 0.25,
        srpt_weight: float = 2.0,
        bottleneck_weight: float = 1.5,
        locality_weight: float = 0.3,
    ) -> None:
        super().__init__(seed=seed, temperature=temperature)
        self.srpt_weight = srpt_weight
        self.bottleneck_weight = bottleneck_weight
        self.locality_weight = locality_weight
        # (matrix object, raw scores) of the last frontier scored; see
        # _raw_scores.
        self._score_cache: tuple | None = None

    def reset(self) -> None:
        super().reset()
        self._score_cache = None

    def scores_from_arrays(
        self, view: ClusterView, frontier: FrontierArrays
    ) -> np.ndarray:
        """One score per frontier row, one array expression per term.

        ``(srpt + bottleneck_weight * bottleneck) + locality`` with
        ``srpt = srpt_weight * (1 - remaining / denominator)``, the
        denominator being the largest remaining work on the frontier, and
        ``locality = locality_weight`` for jobs holding executors. The
        elementwise IEEE-754 operations run in the order of a per-entry
        loop, which ``tests/test_frontier_arrays.py`` keeps as the
        reference the result must match bit for bit.
        """
        data = frontier.data
        remaining = data[:, FrontierArrays.REMAINING_WORK]
        denominator = max(float(np.maximum.reduce(remaining)), 1e-9)
        srpt = self.srpt_weight * (1.0 - remaining / denominator)
        locality = self.locality_weight * (
            data[:, FrontierArrays.EXECUTORS_IN_USE] > 0
        ).astype(float)
        bottleneck = data[:, FrontierArrays.BOTTLENECK]
        return srpt + self.bottleneck_weight * bottleneck + locality

    def _raw_scores(
        self, view: ClusterView, frontier: FrontierArrays
    ) -> np.ndarray:
        """Score-cache interposer for the sampling entry points.

        Decima's scores are a pure function of the frontier matrix, so
        the same matrix object scores identically: a repeated draw on an
        unchanged frontier (PCAPS's resamples, a deferral streak) reuses
        the last scores.
        """
        cached = self._score_cache
        data = frontier.data
        if cached is not None and cached[0] is data:
            return cached[1]
        raw = self.scores_from_arrays(view, frontier)
        self._score_cache = (data, raw)
        return raw

    def parallelism_limits(
        self, view: ClusterView, frontier: FrontierArrays
    ) -> np.ndarray:
        """Split the cluster among active jobs (Decima's learned moderation).

        Decima learns that flooding one stage with executors starves other
        jobs; its limits end up near an even division of executors across
        jobs. Every row's stage is capped at ``ceil(K / active jobs)``, and
        at least 1.
        """
        return np.maximum(np.minimum(frontier.num_tasks, self._share(view)), 1)

    @staticmethod
    def _share(view: ClusterView) -> int:
        """``ceil(K / active jobs)``: the per-stage executor share."""
        return math.ceil(view.total_executors / max(view.queued_job_count(), 1))
