"""Replaying carbon-intensity "API".

The paper's prototype runs a Python daemon that polls an external carbon
intensity API (Electricity Maps / WattTime) once per real-time minute and
exposes the current intensity plus forecast bounds to CAP and PCAPS
(Section 5.1, Section 6.3: "We implement a carbon intensity API that replays
historical traces"). This module is the equivalent component: a thin,
stateful facade over a :class:`~repro.carbon.trace.CarbonTrace` and a
:class:`~repro.carbon.forecast.CarbonForecaster`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.carbon.forecast import DEFAULT_LOOKAHEAD_STEPS, CarbonForecaster
from repro.carbon.trace import CarbonTrace


@dataclass(frozen=True)
class CarbonReading:
    """One API response: current intensity and forecast bounds."""

    time: float
    intensity: float
    lower_bound: float
    upper_bound: float


class CarbonIntensityAPI:
    """Replays a historical trace as if it were a live carbon API.

    Mirrors the prototype daemon: readings update at carbon-step boundaries,
    and each reading carries the 48-hour forecast bounds ``(L, U)`` the
    threshold functions require.
    """

    def __init__(
        self,
        trace: CarbonTrace,
        lookahead_steps: int = DEFAULT_LOOKAHEAD_STEPS,
        forecast_error_std: float = 0.0,
        seed: int | None = 0,
    ) -> None:
        self.trace = trace
        self._forecaster = CarbonForecaster(
            trace,
            lookahead_steps=lookahead_steps,
            error_std=forecast_error_std,
            seed=seed,
        )
        self._query_count = 0
        #: (trace step, the forecaster's bounds tuple, intensity) of the
        #: last reading; see :meth:`reading`.
        self._step_memo: tuple[int, tuple[float, float], float] | None = None

    @property
    def query_count(self) -> int:
        """Number of readings served (for overhead accounting)."""
        return self._query_count

    def reading(self, t: float) -> CarbonReading:
        """The API response a scheduler would receive at time ``t``.

        Intensity and bounds change once per trace step, so a reading in
        the step of the previous one reuses them while the forecaster
        still holds that step's bounds. Any other call asks the
        forecaster, which draws forecast error exactly when it would have
        without the reuse (a ``bounds`` call at another step in between
        makes it draw again).
        """
        self._query_count += 1
        step = self.trace.step_index(t)
        memo = self._step_memo
        # A new tuple is stored per forecaster refresh, so identity tells
        # whether the forecaster still holds the memo's bounds.
        if (
            memo is None
            or memo[0] != step
            or memo[1] is not self._forecaster._cached_bounds
        ):
            bounds = self._forecaster.bounds(t)
            memo = self._step_memo = (step, bounds, self.trace.intensity_at(t))
        low, high = memo[1]
        return CarbonReading(
            time=t, intensity=memo[2], lower_bound=low, upper_bound=high
        )

    def intensity(self, t: float) -> float:
        """Convenience accessor for the current intensity only."""
        return self.trace.intensity_at(t)

    def bounds(self, t: float) -> tuple[float, float]:
        """Convenience accessor for the forecast ``(L, U)`` only."""
        return self._forecaster.bounds(t)
