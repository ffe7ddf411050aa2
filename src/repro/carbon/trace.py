"""Carbon-intensity traces.

A :class:`CarbonTrace` holds an hourly series of grid carbon intensities (in
gCO2eq/kWh) and maps it onto simulation time. Following the paper's
experimental scaling (Section 6.1), one hour of grid time corresponds to
``step_seconds`` of simulated time (60 s by default, i.e. "1 minute of real
time is 1 hour of experiment time").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

DEFAULT_STEP_SECONDS = 60.0


@dataclass(frozen=True)
class TraceStats:
    """Summary statistics of a trace, mirroring Table 1 of the paper."""

    minimum: float
    maximum: float
    mean: float
    coeff_var: float

    def as_row(self) -> tuple[float, float, float, float]:
        """Return ``(min, max, mean, coeff_var)`` for table printing."""
        return (self.minimum, self.maximum, self.mean, self.coeff_var)


class CarbonTrace:
    """An hourly carbon-intensity series addressable by simulation time.

    Parameters
    ----------
    values:
        Carbon intensity per hourly step, gCO2eq/kWh. Must be non-empty and
        non-negative.
    step_seconds:
        Simulated seconds per carbon step (default 60 s = 1 grid hour).
    wrap:
        If true (default), simulation times past the end of the trace wrap
        around to the beginning, so arbitrarily long experiments are
        well-defined. If false, the final value is held forever.
    name:
        Optional grid code for display (e.g. ``"DE"``).
    """

    def __init__(
        self,
        values: Sequence[float] | np.ndarray,
        step_seconds: float = DEFAULT_STEP_SECONDS,
        wrap: bool = True,
        name: str = "",
    ) -> None:
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("trace must be a non-empty 1-D sequence")
        if np.any(arr < 0) or not np.all(np.isfinite(arr)):
            raise ValueError("carbon intensities must be finite and >= 0")
        if step_seconds <= 0:
            raise ValueError("step_seconds must be positive")
        self._values = arr
        self.step_seconds = float(step_seconds)
        self.wrap = bool(wrap)
        self.name = name
        # Cumulative step integral for O(1) integrate() lookups; built
        # lazily on first use (many short-lived traces never integrate).
        self._cumulative: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def values(self) -> np.ndarray:
        """The raw hourly series (read-only view)."""
        view = self._values.view()
        view.flags.writeable = False
        return view

    def __len__(self) -> int:
        return int(self._values.size)

    @property
    def duration_seconds(self) -> float:
        """Simulated duration covered by one pass over the trace."""
        return len(self) * self.step_seconds

    def step_index(self, t: float) -> int:
        """Map a simulation time ``t`` (seconds) to a step index."""
        if t < 0:
            raise ValueError("time must be >= 0")
        idx = int(t // self.step_seconds)
        n = len(self)
        if idx >= n:
            idx = idx % n if self.wrap else n - 1
        return idx

    def intensity_at(self, t: float) -> float:
        """Carbon intensity ``c(t)`` at simulation time ``t``."""
        return float(self._values[self.step_index(t)])

    def next_change_after(self, t: float) -> float:
        """Simulation time of the next carbon-intensity update after ``t``.

        Carbon changes are scheduling events for PCAPS (Algorithm 1, line 2),
        so the simulator needs the boundary of the current step.
        """
        if t < 0:
            raise ValueError("time must be >= 0")
        steps_elapsed = int(t // self.step_seconds)
        return (steps_elapsed + 1) * self.step_seconds

    # ------------------------------------------------------------------
    # Derived traces
    # ------------------------------------------------------------------
    def slice(self, start_step: int, num_steps: int) -> "CarbonTrace":
        """A sub-trace of ``num_steps`` hourly values starting at ``start_step``.

        Indices wrap around the underlying series so any window is valid.
        """
        if num_steps <= 0:
            raise ValueError("num_steps must be positive")
        n = len(self)
        idx = (start_step + np.arange(num_steps)) % n
        return CarbonTrace(
            self._values[idx],
            step_seconds=self.step_seconds,
            wrap=self.wrap,
            name=self.name,
        )

    def rescaled(self, step_seconds: float) -> "CarbonTrace":
        """The same series with a different simulation-time scale."""
        return CarbonTrace(
            self._values,
            step_seconds=step_seconds,
            wrap=self.wrap,
            name=self.name,
        )

    # ------------------------------------------------------------------
    # Statistics and integration
    # ------------------------------------------------------------------
    def stats(self) -> TraceStats:
        """Min/max/mean/coefficient-of-variation, as in Table 1."""
        mean = float(self._values.mean())
        std = float(self._values.std())
        cov = std / mean if mean > 0 else 0.0
        return TraceStats(
            minimum=float(self._values.min()),
            maximum=float(self._values.max()),
            mean=mean,
            coeff_var=cov,
        )

    def bounds_over(self, t_start: float, t_end: float) -> tuple[float, float]:
        """``(L, U)`` over the simulation-time window ``[t_start, t_end)``.

        Steps past the end of the trace wrap or hold the last value, as in
        :meth:`intensity_at`.
        """
        if t_end <= t_start:
            raise ValueError("window must have positive length")
        first = self.step_index(t_start)
        last_exclusive = int(np.ceil(t_end / self.step_seconds))
        n = len(self)
        count = min(last_exclusive - int(t_start // self.step_seconds), n)
        idx = first + np.arange(max(count, 1))
        idx = idx % n if self.wrap else np.minimum(idx, n - 1)
        window = self._values[idx]
        return float(window.min()), float(window.max())

    def _cum(self) -> np.ndarray:
        """``cum[k]`` = integral of one trace pass over its first ``k`` steps."""
        if self._cumulative is None:
            self._cumulative = np.concatenate(
                ([0.0], np.cumsum(self._values * self.step_seconds))
            )
        return self._cumulative

    def cumulative_at(self, t: float) -> float:
        """``F(t)``: integral of ``c`` over ``[0, t]`` in gCO2eq·s/kWh.

        With wrapping, whole passes over the trace contribute the full-trace
        integral each; without, time past the end accrues at the final
        value. ``integrate(a, b)`` is just ``F(b) - F(a)``.
        """
        if t < 0:
            raise ValueError("time must be >= 0")
        cum = self._cum()
        n = len(self)
        step = self.step_seconds
        duration = self.duration_seconds
        if self.wrap:
            cycles, remainder = divmod(t, duration)
            idx = min(int(remainder // step), n - 1)
            return (
                cycles * cum[n]
                + cum[idx]
                + self._values[idx] * max(remainder - idx * step, 0.0)
            )
        if t >= duration:
            return float(cum[n] + self._values[n - 1] * (t - duration))
        idx = min(int(t // step), n - 1)
        return float(cum[idx] + self._values[idx] * max(t - idx * step, 0.0))

    def integrate(self, t_start: float, t_end: float) -> float:
        """Integral of ``c(t) dt`` over ``[t_start, t_end]`` in gCO2eq·s/kWh.

        Used by the ex-post carbon accounting: a busy executor over this
        interval emits carbon proportional to this integral. Computed from
        the precomputed cumulative step integral — two lookups instead of a
        per-segment walk.
        """
        if t_end < t_start:
            raise ValueError("t_end must be >= t_start")
        if t_end == t_start:
            return 0.0
        return float(self.cumulative_at(t_end) - self.cumulative_at(t_start))

    def integrate_many(
        self,
        t_start: Sequence[float] | np.ndarray,
        t_end: Sequence[float] | np.ndarray,
    ) -> np.ndarray:
        """Vectorized :meth:`integrate` over paired interval arrays.

        The batch form of the ex-post accounting: one numpy pass over every
        task (or hold) record instead of a Python loop per interval.
        """
        starts = np.asarray(t_start, dtype=float)
        ends = np.asarray(t_end, dtype=float)
        if starts.shape != ends.shape:
            raise ValueError("t_start and t_end must have matching shapes")
        if starts.size == 0:
            return np.zeros_like(starts)
        if np.any(starts < 0) or np.any(ends < starts):
            raise ValueError("need 0 <= t_start <= t_end elementwise")
        return self._cumulative_at_many(ends) - self._cumulative_at_many(starts)

    def _cumulative_at_many(self, t: np.ndarray) -> np.ndarray:
        """Vectorized ``F(t)`` (see :meth:`cumulative_at`)."""
        cum = self._cum()
        n = len(self)
        step = self.step_seconds
        duration = self.duration_seconds
        values = self._values
        if self.wrap:
            cycles, remainder = np.divmod(t, duration)
            idx = np.minimum((remainder // step).astype(np.intp), n - 1)
            partial = np.maximum(remainder - idx * step, 0.0)
            return cycles * cum[n] + cum[idx] + values[idx] * partial
        idx = np.minimum(
            (np.minimum(t, duration) // step).astype(np.intp), n - 1
        )
        within = cum[idx] + values[idx] * np.maximum(t - idx * step, 0.0)
        past_end = cum[n] + values[n - 1] * (t - duration)
        return np.where(t >= duration, past_end, within)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats()
        return (
            f"CarbonTrace(name={self.name!r}, steps={len(self)}, "
            f"mean={s.mean:.1f}, cov={s.coeff_var:.3f})"
        )


def concatenate(traces: Iterable[CarbonTrace]) -> CarbonTrace:
    """Concatenate several traces with identical time scales."""
    traces = list(traces)
    if not traces:
        raise ValueError("need at least one trace")
    step = traces[0].step_seconds
    if any(tr.step_seconds != step for tr in traces):
        raise ValueError("all traces must share step_seconds")
    values = np.concatenate([tr.values for tr in traces])
    return CarbonTrace(values, step_seconds=step, name=traces[0].name)
