"""Threshold functions: PCAPS's ``Ψ_γ`` and CAP's k-search set ``Φ``.

Both thresholds hedge between executing now and waiting for lower-carbon
periods, using only the forecast bounds ``L <= c(t) <= U`` (Section 3).

``Ψ_γ`` (Section 4.1) maps a task's relative importance ``r ∈ [0,1]`` to the
highest carbon intensity at which the task should still run::

    Ψ_γ(r) = (γL + (1-γ)U) + [U - (γL + (1-γ)U)] * (exp(γr) - 1) / (exp(γ) - 1)

so ``Ψ_γ(1) = U`` (bottleneck tasks always run) and ``Ψ_0 ≡ U`` (carbon-
agnostic). The exponential shape is inherited from one-way-trading
thresholds [El-Yaniv et al.].

``Φ`` (Section 4.2) is the (K-B)-search threshold set: ``Φ_i = U`` for
``i <= B`` and for ``i ∈ {1, …, K-B}``::

    Φ_{i+B} = U - (U - U/α) * (1 + 1/((K-B)α))^(i-1)

where ``α > 1`` solves ``(1 + 1/((K-B)α))^(K-B) = (U-L) / (U(1-1/α))``.
The quota at carbon intensity ``c`` is the number of thresholds ≥ ``c``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from operator import neg


def _validate_bounds(low: float, high: float) -> None:
    if not (0 <= low <= high):
        raise ValueError(f"need 0 <= L <= U, got L={low}, U={high}")


def _is_flat(low: float, high: float) -> bool:
    """Whether the forecast is too flat for CAP's ``α`` root in float64.

    At a relative spread ``(U-L)/U`` below about ``5e-12`` the bisected
    ``α`` no longer meets the root equation to 1e-4 (``α - 1`` nears the
    float64 spacing at 1), and below about ``2e-12`` no float64 ``α`` does.
    The cutoff sits at ``1e-11``, a factor-2 margin above that.
    """
    return high - low <= 1e-11 * high


def psi(
    r: float,
    gamma: float,
    low: float,
    high: float,
    shape: str = "exponential",
) -> float:
    """PCAPS's threshold ``Ψ_γ(r)`` (Section 4.1).

    Parameters
    ----------
    r:
        Relative importance in [0, 1] (Definition 4.2).
    gamma:
        Carbon-awareness in [0, 1]; 0 recovers carbon-agnostic behaviour.
    low / high:
        Forecast carbon bounds ``L`` and ``U``.
    shape:
        ``"exponential"`` is the paper's design; ``"linear"`` replaces the
        exponential interpolation with a straight line (an ablation).
    """
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"relative importance must be in [0,1], got {r}")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be in [0,1], got {gamma}")
    _validate_bounds(low, high)
    floor = gamma * low + (1.0 - gamma) * high
    if gamma == 0.0:
        return high  # exp(γr)-1 / exp(γ)-1 -> r as γ->0, but floor is U anyway
    if shape == "exponential":
        ramp = math.expm1(gamma * r) / math.expm1(gamma)
    elif shape == "linear":
        ramp = r
    else:
        raise ValueError(f"unknown shape {shape!r}")
    return floor + (high - floor) * ramp


def solve_alpha(num_slots: int, low: float, high: float) -> float:
    """Solve the CAP ``α`` root for ``k = num_slots`` flexible machine slots.

    Finds ``α > 1`` with ``(1 + 1/(kα))^k = (U-L) / (U(1-1/α))``. In terms
    of ``x = 1 - 1/α`` this is ``x (1 + (1-x)/k)^k = (U-L)/U``, whose left
    side rises from 0 at ``x = 0`` to 1 at ``x = 1``, so a unique root
    exists for ``U > L > 0``. Bisecting ``x`` to a relative ``1e-15``
    keeps full precision when the spread, and with it ``α - 1``, is
    small. Flat forecasts (see :func:`_is_flat`) return ``inf``.
    """
    if num_slots < 1:
        raise ValueError("num_slots must be >= 1")
    _validate_bounds(low, high)
    if _is_flat(low, high):
        return math.inf  # no fluctuation: thresholds degenerate to U

    k = num_slots
    ratio = (high - low) / high

    lo_x, hi_x = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo_x + hi_x)
        if mid * (1.0 + (1.0 - mid) / k) ** k < ratio:
            lo_x = mid
        else:
            hi_x = mid
        if hi_x - lo_x <= 1e-15 * hi_x:
            break
    return 1.0 / (1.0 - 0.5 * (lo_x + hi_x))


@dataclass(frozen=True)
class CAPThresholds:
    """CAP's threshold set for one ``(K, B, L, U)`` configuration.

    ``values[i]`` is ``Φ_{i+1}`` (1-indexed in the paper): a non-increasing
    array of length ``K`` with ``values[:B] == U``.
    """

    total_machines: int
    min_quota: int
    low: float
    high: float
    alpha: float
    values: tuple[float, ...]

    def quota(self, carbon_intensity: float) -> int:
        """Machines allowed at this intensity: ``#{i : Φ_i >= c}``.

        At least ``min_quota`` (B) machines are always allowed (``Φ_i = U``
        for i ≤ B and intensities above U are clamped), guaranteeing
        continuous progress (Section 4.2). With a flat forecast
        (:func:`_is_flat`) every threshold equals ``U`` and the quota is ``K``.

        ``values`` is non-increasing, so the count is the position of the
        first ``Φ_i`` below ``c``, found by bisection (``c`` is finite, as
        every carbon trace is).
        """
        count = bisect_right(self.values, -carbon_intensity, key=neg)
        return max(self.min_quota, count)


def cap_thresholds(
    total_machines: int, min_quota: int, low: float, high: float
) -> CAPThresholds:
    """Build CAP's ``Φ`` threshold set (Section 4.2).

    ``min_quota`` is the paper's ``B``: a floor on the executor quota. When
    ``B == K`` or the forecast is flat (see :func:`_is_flat`), every
    threshold is ``U`` and the quota is always ``K`` — CAP degenerates to
    the carbon-agnostic baseline.
    """
    if total_machines < 1:
        raise ValueError("total_machines must be >= 1")
    if not 1 <= min_quota <= total_machines:
        raise ValueError("need 1 <= min_quota <= total_machines")
    _validate_bounds(low, high)

    K, B = total_machines, min_quota
    k = K - B
    if k == 0 or _is_flat(low, high):
        return CAPThresholds(
            total_machines=K,
            min_quota=B,
            low=low,
            high=high,
            alpha=math.inf,
            values=tuple([high] * K),
        )
    alpha = solve_alpha(k, low, high)
    values = [high] * B
    base = high - high / alpha
    growth = 1.0 + 1.0 / (k * alpha)
    for i in range(1, k + 1):
        values.append(high - base * growth ** (i - 1))
    return CAPThresholds(
        total_machines=K,
        min_quota=B,
        low=low,
        high=high,
        alpha=alpha,
        values=tuple(values),
    )


def cap_quota(
    carbon_intensity: float,
    total_machines: int,
    min_quota: int,
    low: float,
    high: float,
) -> int:
    """One-shot quota computation (builds the threshold set and queries it)."""
    return cap_thresholds(total_machines, min_quota, low, high).quota(
        carbon_intensity
    )
