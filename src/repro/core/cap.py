"""CAP: Carbon-Aware Provisioning (Section 4.2).

CAP wraps *any* carbon-agnostic scheduler by imposing a time-varying,
non-preemptive executor quota derived from the (K-B)-search threshold set:
when carbon intensity is at its forecast maximum ``U`` only the minimum
quota ``B`` machines may be busy; as intensity falls toward ``L`` the quota
rises to the full cluster ``K``. It additionally shrinks parallelism limits
proportionally to the quota (Section 5.1): ``P' = ceil(P * r(t)/K)``.

Thresholds are rebuilt whenever the forecast bounds ``(L, U)`` change, so
CAP adapts as the 48-hour lookahead window slides.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.threshold import CAPThresholds, cap_thresholds
from repro.simulator.interfaces import Provisioner
from repro.simulator.state import ClusterView


class CAPProvisioner(Provisioner):
    """The CAP module, enforced by the engine without preemption.

    Parameters
    ----------
    total_executors:
        Cluster size ``K`` (must match the cluster config).
    min_quota:
        The paper's ``B``: machines always allowed, guaranteeing progress.
        The paper's "moderate" prototype setting is B=20 on K=100.
    """

    def __init__(self, total_executors: int, min_quota: int) -> None:
        if total_executors < 1:
            raise ValueError("total_executors must be >= 1")
        if not 1 <= min_quota <= total_executors:
            raise ValueError("need 1 <= min_quota <= total_executors")
        self.total_executors = total_executors
        self.min_quota = min_quota
        self.name = f"cap(B={min_quota}/K={total_executors})"
        self._thresholds: CAPThresholds | None = None
        self._bounds: tuple[float, float] | None = None
        self._last_quota = total_executors
        # Running minimum of the quotas decided, for M(B,c) analysis. A
        # minimum, not a history: a service run asks for a quota at every
        # scheduling step, and a checkpoint must not grow with the stream.
        # Batch runs keep every quota in ScheduleTrace.quotas.
        self._min_quota = total_executors

    def reset(self) -> None:
        self._thresholds = None
        self._bounds = None
        self._last_quota = self.total_executors
        self._min_quota = self.total_executors

    def thresholds_for(self, low: float, high: float) -> CAPThresholds:
        """The Φ set for the current forecast bounds (cached)."""
        if self._bounds != (low, high) or self._thresholds is None:
            self._thresholds = cap_thresholds(
                self.total_executors, self.min_quota, low, high
            )
            self._bounds = (low, high)
        return self._thresholds

    def quota(self, view: ClusterView) -> int:
        reading = view.carbon
        thresholds = self.thresholds_for(reading.lower_bound, reading.upper_bound)
        value = thresholds.quota(reading.intensity)
        self._last_quota = value
        if value < self._min_quota:
            self._min_quota = value
        return value

    def scale_parallelism(self, limit: int, view: ClusterView) -> int:
        """``P' = ceil(P * r(t)/K)`` — Section 5.1's CAP parallelism rule."""
        ratio = self._last_quota / self.total_executors
        return max(1, math.ceil(limit * ratio))

    def scale_parallelism_column(
        self, limits: np.ndarray, view: ClusterView
    ) -> np.ndarray:
        """:meth:`scale_parallelism` of every element, as one array
        expression with the same float operations."""
        ratio = self._last_quota / self.total_executors
        return np.maximum(np.ceil(limits * ratio), 1)

    def min_quota_seen(self) -> int:
        """``M(B, c)``: the smallest quota this run (Theorem 4.5's constant);
        ``K`` before the first quota."""
        return self._min_quota
