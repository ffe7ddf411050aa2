"""PCAPS: Precedence- and Carbon-Aware Provisioning and Scheduling.

Algorithm 1 of the paper, as a wrapper over any probabilistic
(Definition 4.1) scheduler:

1. At each scheduling event, obtain the frontier distribution ``{p_u}``
   over ``A_t`` from the wrapped scheduler and sample a stage ``v`` from
   the stages that can still grow (step 4).
2. Compute relative importance ``r = p_v / max_{u in A_t} p_u``
   (Definition 4.2).
3. Schedule ``v`` iff ``Ψ_γ(r) >= c(t)`` or no machines are currently busy
   (the minimum-progress guarantee); otherwise defer — idle the free
   executors until the next scheduling event.
4. Every stage's parallelism limit shrinks to
   ``P' = ceil(P * min{exp(γ(L - c_t)), 1 - γ})`` (Section 5.1), so even
   admitted stages ramp down during high-carbon periods. ``P'`` masks the
   draw: stages already running ``P'`` tasks are never sampled, though
   they keep their mass in ``{p_u}`` and in step 2's maximum. When no
   stage can grow, the pass ends without a draw and without a deferral
   (:data:`~repro.simulator.interfaces.NOTHING_GROWABLE`).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.threshold import psi
from repro.simulator.interfaces import (
    NOTHING_GROWABLE,
    NothingGrowable,
    ProbabilisticPolicy,
    StageChoice,
    StageScheduler,
)
from repro.simulator.state import ClusterView, FrontierArrays


class PCAPSScheduler(StageScheduler):
    """The carbon-awareness filter of Algorithm 1.

    Parameters
    ----------
    policy:
        The wrapped probabilistic scheduler ``PB`` (e.g. the Decima
        surrogate). PCAPS consumes its distribution and its parallelism
        choices.
    gamma:
        Carbon-awareness knob ``γ ∈ [0, 1]``; 0 is carbon-agnostic, 1 is
        maximally carbon-aware for unimportant tasks. The paper's
        "moderate" setting is 0.5.
    threshold_shape:
        ``"exponential"`` (the paper's ``Ψ_γ``) or ``"linear"`` (ablation).
    parallelism_mode:
        How to compute the Section 5.1 parallelism limit ``P'``, which
        masks stages already running ``P'`` tasks out of the draw:

        - ``"decay"`` (default): ``P' = ⌈P · exp(γ (L-c_t) κ / (U-L))⌉`` —
          full parallelism at clean hours, exponential ramp-down toward
          ``U``. This follows the paper's stated intuition ("set lower
          limits during high-carbon periods") and reproduces its measured
          ECT profile.
        - ``"paper"``: the literal formula with the additional ``(1-γ)``
          cap, ``P' = ⌈P · min{exp(γ(L-c_t)κ/(U-L)), 1-γ}⌉``, which cuts
          parallelism even at the cleanest hours (an ablation here; see
          DESIGN.md).
        - ``"off"``: no parallelism reduction (filter only).
    defer_scope:
        What a rejected sample defers:

        - ``"event"`` (Algorithm 1): the whole scheduling event — remaining
          free executors idle until the next event;
        - ``"sample"`` (ablation): only the sampled stage — PCAPS redraws
          from the same masked stages up to ``max_resamples`` times before
          idling, which keeps more of the cluster busy but defers less
          carbon.
    max_resamples:
        Resampling budget for ``defer_scope="sample"``.
    """

    def __init__(
        self,
        policy: ProbabilisticPolicy,
        gamma: float = 0.5,
        threshold_shape: str = "exponential",
        parallelism_mode: str = "decay",
        defer_scope: str = "event",
        max_resamples: int = 4,
    ) -> None:
        if not 0.0 <= gamma <= 1.0:
            raise ValueError(f"gamma must be in [0,1], got {gamma}")
        if parallelism_mode not in ("decay", "paper", "off"):
            raise ValueError(f"unknown parallelism_mode {parallelism_mode!r}")
        if defer_scope not in ("event", "sample"):
            raise ValueError(f"unknown defer_scope {defer_scope!r}")
        if max_resamples < 1:
            raise ValueError("max_resamples must be >= 1")
        self.policy = policy
        self.gamma = gamma
        self.threshold_shape = threshold_shape
        self.parallelism_mode = parallelism_mode
        self.defer_scope = defer_scope
        self.max_resamples = max_resamples
        self.name = f"pcaps(γ={gamma:g},{policy.name})"
        #: Count of sampled stages rejected by the filter (diagnostics).
        self.deferral_count = 0

    def reset(self) -> None:
        self.policy.reset()
        self.deferral_count = 0

    #: Decay rate of the parallelism reduction over the forecast range.
    #: Section 5.1 writes ``exp(γ(L - c_t))`` with raw carbon intensities;
    #: since ``L - c_t`` is tens to hundreds of gCO2eq/kWh, the literal
    #: formula collapses to parallelism 1 whenever ``c_t`` exceeds ``L`` at
    #: all. We normalize the exponent by the forecast range ``U - L``
    #: (making it dimensionless) and apply this decay rate.
    PARALLELISM_DECAY = 3.0

    # ------------------------------------------------------------------
    def _parallelism_factor(
        self, low: float, high: float, intensity: float
    ) -> float | None:
        """The Section 5.1 multiplier on ``P``; ``None`` means no cap."""
        if self.parallelism_mode == "off" or self.gamma == 0.0:
            return None
        span = max(high - low, 1e-9)
        exponent = self.gamma * (low - intensity) / span * self.PARALLELISM_DECAY
        factor = math.exp(exponent)
        if self.parallelism_mode == "paper":
            factor = min(factor, 1.0 - self.gamma)
        return factor

    def parallelism_limits(
        self, view: ClusterView, frontier: FrontierArrays
    ) -> np.ndarray:
        """The Section 5.1 parallelism limit ``P'`` of every frontier row:
        the policy's columnar limits, reduced by the carbon factor."""
        base = self.policy.parallelism_limits(view, frontier)
        reading = view.carbon
        factor = self._parallelism_factor(
            reading.lower_bound, reading.upper_bound, reading.intensity
        )
        if factor is None:
            return base
        return np.maximum(np.ceil(base * factor), 1)

    def select(
        self, view: ClusterView
    ) -> StageChoice | NothingGrowable | None:
        reading = view.carbon
        full = view.frontier_arrays(include_saturated=True)
        # Stages already running P' tasks cannot grow: mask them out of the
        # draw. They stay in the frontier the policy normalizes over, so
        # importance is still relative to the whole of A_t.
        limits = self.parallelism_limits(view, full)
        data = full.data
        growable = (
            (data[:, FrontierArrays.SLOTS] > 0)
            & (data[:, FrontierArrays.RUNNING] < limits)
        ).nonzero()[0]
        if growable.size == 0:
            return NOTHING_GROWABLE
        attempts = self.max_resamples if self.defer_scope == "sample" else 1
        no_machines_busy = view.busy_executors == 0
        for _ in range(attempts):
            pick, importance = self.policy.sample_row(view, growable)
            threshold = psi(
                importance,
                self.gamma,
                low=reading.lower_bound,
                high=reading.upper_bound,
                shape=self.threshold_shape,
            )
            if threshold >= reading.intensity or no_machines_busy:
                job_id, stage_id = data[pick, :2].tolist()
                return StageChoice(
                    job_id=int(job_id),
                    stage_id=int(stage_id),
                    # The sampled row's P', from the column that masked
                    # the draw.
                    parallelism_limit=int(limits[pick]),
                    # Granting the last growable stage leaves nothing to
                    # grow: the next select could only end the pass.
                    ends_pass=growable.size == 1,
                )
            self.deferral_count += 1
        return None  # defer: idle until the next scheduling event
