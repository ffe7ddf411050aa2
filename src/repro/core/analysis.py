"""Analytical quantities: stretch factors and savings decompositions.

Implements the paper's theory so experiments can check bounds empirically:

- **Graham's bound** ``2 - 1/K`` — list scheduling's approximation factor,
  inherited by every carbon-agnostic baseline (Appendix B).
- **Theorem 4.3** — PCAPS's carbon stretch factor ``1 + D(γ,c)K / (2-1/K)``.
- **Theorem 4.5** — CAP's carbon stretch factor
  ``(K/M)^2 (2M-1)/(2K-1)`` with ``M = M(B,c)`` the minimum quota.
- **Theorems 4.4 / 4.6** — exact carbon-savings decompositions
  ``W (s₋ - s₊ - c_tail)``, computed here from two recorded schedules; the
  decomposition is an identity, so predicted and measured savings agree.
  The per-step series it splits is the power the footprint charges: task
  time at full power plus, for schedulers that hoard executors, idle held
  time at ``idle_power_fraction`` (Appendix A.1.2's FIFO carbon penalty).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.carbon.trace import CarbonTrace
from repro.simulator.metrics import ExperimentResult
from repro.simulator.trace import ScheduleTrace


def graham_bound(num_machines: int) -> float:
    """List scheduling's classic makespan approximation: ``2 - 1/K``."""
    if num_machines < 1:
        raise ValueError("num_machines must be >= 1")
    return 2.0 - 1.0 / num_machines


def pcaps_stretch_factor(deferral_fraction_value: float, num_machines: int) -> float:
    """Theorem 4.3: PCAPS's carbon stretch factor ``1 + D·K / (2 - 1/K)``."""
    if not 0.0 <= deferral_fraction_value <= 1.0:
        raise ValueError("deferral fraction must be in [0,1]")
    return 1.0 + deferral_fraction_value * num_machines / graham_bound(num_machines)


def cap_stretch_factor(num_machines: int, min_quota: int) -> float:
    """Theorem 4.5: CAP's carbon stretch factor
    ``(K/M)^2 * (2M-1) / (2K-1)``."""
    if not 1 <= min_quota <= num_machines:
        raise ValueError("need 1 <= min_quota <= num_machines")
    K, M = num_machines, min_quota
    return (K / M) ** 2 * (2 * M - 1) / (2 * K - 1)


def deferral_fraction(
    deferrals: int, mean_task_duration: float, total_work: float
) -> float:
    """Empirical estimate of ``D(γ, c)`` (Appendix B.1).

    ``D`` is the fraction of total runtime deferred by PCAPS's filter; we
    estimate it as (number of deferral events × mean task duration) / OPT₁,
    clipped to [0, 1]. ``D(0, c) = 0`` because γ=0 never defers.
    """
    if total_work <= 0:
        raise ValueError("total_work must be positive")
    if deferrals < 0 or mean_task_duration < 0:
        raise ValueError("deferrals and mean_task_duration must be >= 0")
    return min(1.0, deferrals * mean_task_duration / total_work)


def min_quota_from_trace(trace: ScheduleTrace, default: int) -> int:
    """``M(B, c)``: minimum quota recorded during a run (Theorem 4.5)."""
    if not trace.quotas:
        return default
    return min(q.quota for q in trace.quotas)


def carbon_savings(
    baseline: ExperimentResult, carbon_aware: ExperimentResult
) -> float:
    """Definition 3.2: baseline emissions minus carbon-aware emissions."""
    return baseline.carbon_footprint - carbon_aware.carbon_footprint


# ----------------------------------------------------------------------
# Theorems 4.4 / 4.6: the W(s- - s+ - c_tail) decomposition
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SavingsDecomposition:
    """The quantities of Theorems 4.4/4.6 measured from two schedules.

    - ``excess_work`` (W): executor-seconds deferred past the baseline's
      finish time.
    - ``s_minus``: weighted-average intensity of work the carbon-aware
      schedule *avoided* before the baseline finished.
    - ``s_plus``: weighted-average intensity of work it *opportunistically
      added* before the baseline finished (e.g. catching up in low-carbon
      valleys).
    - ``c_tail``: weighted-average intensity of the make-up work after the
      baseline finished.
    - ``predicted_savings``: the avoided minus the added and the tail
      carbon, which is ``W (s_minus - s_plus - c_tail)`` whenever ``W > 0``.
    - ``measured_savings``: direct footprint difference (Definition 3.2).

    The decomposition is an identity, so the two savings values agree up to
    floating-point error. With ``W = 0`` the three intensities are 0, yet
    a run that never fell behind may still add work before and after the
    baseline's finish; ``predicted_savings`` then is minus that carbon.
    """

    excess_work: float
    s_minus: float
    s_plus: float
    c_tail: float
    predicted_savings: float
    measured_savings: float


def _seconds_per_step(intervals, step: float, num_steps: int) -> np.ndarray:
    """Interval seconds falling in each carbon step."""
    seconds = np.zeros(num_steps)
    for start, end in intervals:
        first = int(start // step)
        last = int(math.ceil(end / step))
        for i in range(first, min(last, num_steps)):
            lo = max(start, i * step)
            hi = min(end, (i + 1) * step)
            if hi > lo:
                seconds[i] += hi - lo
    return seconds


def _busy_per_step(result: ExperimentResult, num_steps: int) -> np.ndarray:
    """Average busy executors per carbon step (task intervals only)."""
    step = result.carbon_trace.step_seconds
    tasks = ((task.start, task.end) for task in result.trace.tasks)
    return _seconds_per_step(tasks, step, num_steps) / step


def _powered_per_step(result: ExperimentResult, num_steps: int) -> np.ndarray:
    """The ``E_t`` series the footprint charges, per carbon step.

    Busy executors count at full power; executors a hoarding job holds
    idle count at ``idle_power_fraction``, as in
    :meth:`~repro.simulator.trace.ScheduleTrace.carbon_footprint`. Without
    hold records this is :func:`_busy_per_step`.
    """
    busy = _busy_per_step(result, num_steps)
    trace = result.trace
    if not trace.holds:
        return busy
    step = result.carbon_trace.step_seconds
    holds = ((hold.start, hold.end) for hold in trace.holds)
    held = _seconds_per_step(holds, step, num_steps) / step
    return busy + trace.idle_power_fraction * (held - busy)


def average_step_savings(
    baseline: ExperimentResult, carbon_aware: ExperimentResult
) -> np.ndarray:
    """Per-carbon-step average savings (Corollaries B.1 / B.2).

    In the saturated regime (always outstanding work), the corollaries give
    the average per-step savings as ``(ρ_AG·K - ρ_CA(c_t)·K)·c_t`` — the
    utilization gap times the step's intensity. This function measures that
    series directly from two recorded schedules: entry ``t`` is
    ``(E_base[t] - E_aware[t]) * c_t * step_seconds``, whose sum equals the
    total carbon savings (Definition 3.2). ``E`` is the powered series, so
    idle executors a hoarding scheduler holds count at
    ``idle_power_fraction``.
    """
    trace = baseline.carbon_trace
    if carbon_aware.carbon_trace is not trace:
        raise ValueError("both results must share one carbon trace")
    step = trace.step_seconds
    num_steps = int(math.ceil(max(baseline.ect, carbon_aware.ect) / step)) + 1
    e_base = _powered_per_step(baseline, num_steps)
    e_aware = _powered_per_step(carbon_aware, num_steps)
    intensities = np.array(
        [trace.intensity_at(i * step) for i in range(num_steps)]
    )
    return (e_base - e_aware) * intensities * step


def utilization_by_intensity(
    result: ExperimentResult, num_bins: int = 10
) -> list[tuple[float, float]]:
    """Average machine utilization conditioned on carbon intensity.

    The Corollary B.1 quantity ``ρ(c)``: for each intensity bin, the mean
    fraction of executors busy while the grid was in that bin. Carbon-aware
    schedulers show a decreasing profile (throttle when dirty); carbon-
    agnostic ones are flat. Returns ``(bin_center, utilization)`` pairs for
    the bins that occurred.
    """
    if num_bins < 1:
        raise ValueError("num_bins must be >= 1")
    trace = result.carbon_trace
    step = trace.step_seconds
    num_steps = int(math.ceil(result.ect / step)) + 1
    busy = _busy_per_step(result, num_steps) / result.trace.total_executors
    intensities = np.array(
        [trace.intensity_at(i * step) for i in range(num_steps)]
    )
    lo, hi = intensities.min(), intensities.max()
    edges = np.linspace(lo, hi + 1e-9, num_bins + 1)
    profile = []
    for b in range(num_bins):
        mask = (intensities >= edges[b]) & (intensities < edges[b + 1])
        if mask.any():
            center = 0.5 * (edges[b] + edges[b + 1])
            profile.append((float(center), float(busy[mask].mean())))
    return profile


def savings_decomposition(
    baseline: ExperimentResult, carbon_aware: ExperimentResult
) -> SavingsDecomposition:
    """Measure the Theorem 4.4/4.6 decomposition from two runs.

    Both runs must share the same carbon trace. The baseline finishing time
    ``T`` splits time into the comparison window (where ``s₋``/``s₊`` are
    accrued) and the tail (where ``c_tail`` is accrued).
    """
    trace: CarbonTrace = baseline.carbon_trace
    if carbon_aware.carbon_trace is not trace:
        raise ValueError("both results must share one carbon trace")
    step = trace.step_seconds
    t_base = baseline.ect
    t_aware = carbon_aware.ect
    num_steps = int(math.ceil(max(t_base, t_aware) / step)) + 1
    e_base = _powered_per_step(baseline, num_steps)
    e_aware = _powered_per_step(carbon_aware, num_steps)
    intensities = np.array(
        [trace.intensity_at(i * step) for i in range(num_steps)]
    )
    boundary = int(math.ceil(t_base / step))  # steps [0, boundary) are <= T

    diff = (e_base - e_aware)[:boundary]
    c_window = intensities[:boundary]
    deferred = np.clip(diff, 0.0, None)
    opportunistic = np.clip(-diff, 0.0, None)
    excess_work = float(deferred.sum() * step)
    avoided = float((deferred * c_window).sum() * step)
    added = float((opportunistic * c_window).sum() * step)
    tail = float((e_aware[boundary:] * intensities[boundary:]).sum() * step)
    if excess_work <= 0:
        s_minus = s_plus = c_tail = 0.0
    else:
        s_minus = avoided / excess_work
        s_plus = added / excess_work
        c_tail = tail / excess_work
    # The baseline's series is zero beyond `boundary`, so the prediction
    # telescopes to the full footprint difference: the decomposition is an
    # identity (validated in tests).
    predicted = avoided - added - tail
    measured = carbon_savings(baseline, carbon_aware)
    return SavingsDecomposition(
        excess_work=excess_work,
        s_minus=s_minus,
        s_plus=s_plus,
        c_tail=c_tail,
        predicted_savings=predicted,
        measured_savings=measured,
    )
