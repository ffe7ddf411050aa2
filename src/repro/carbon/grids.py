"""Synthetic grid models calibrated to Table 1 of the paper.

The paper evaluates on historical Electricity Maps traces from six power
grids (2020-2022, hourly, 26,304 points). Those traces are not
redistributable, so we synthesize statistically equivalent series: each grid
is described by the Table 1 marginals (min / max / mean / coefficient of
variation) plus a qualitative generation-mix signature that shapes its
diurnal and seasonal structure:

- ``PJM``  — US mid-Atlantic; mixed fossil/nuclear, low variability.
- ``CAISO``— California; heavy solar (midday "duck curve" dip).
- ``ON``   — Ontario; hydro/nuclear, very low baseline with occasional gas.
- ``DE``   — Germany; wind + solar, high variability on multi-day scales.
- ``NSW``  — New South Wales; coal baseline with growing solar.
- ``ZA``   — South Africa; coal-dominated, nearly flat.

The synthesis pipeline builds a structured signal (diurnal + seasonal +
autocorrelated noise), standardizes it, rescales it to the target mean and
coefficient of variation, and clips to the observed [min, max] range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.carbon.trace import DEFAULT_STEP_SECONDS, CarbonTrace

HOURS_PER_DAY = 24
HOURS_PER_YEAR = 8766  # 365.25 days
#: Length of the paper's traces: 3 years of hourly data (Table 1).
PAPER_TRACE_HOURS = 26_304


@dataclass(frozen=True)
class GridSpec:
    """Statistical and structural description of one power grid.

    The four marginal statistics are taken directly from Table 1; the four
    weights control how much of the signal's variance comes from each
    structural component (they are relative and get normalized during
    synthesis).
    """

    code: str
    description: str
    minimum: float
    maximum: float
    mean: float
    coeff_var: float
    solar_weight: float
    wind_weight: float
    seasonal_weight: float
    noise_weight: float

    @property
    def std(self) -> float:
        """Target standard deviation implied by mean and CoV."""
        return self.mean * self.coeff_var


GRID_SPECS: dict[str, GridSpec] = {
    "PJM": GridSpec(
        code="PJM",
        description="US mid-Atlantic: mixed fossil/nuclear, low variability",
        minimum=293.0,
        maximum=567.0,
        mean=425.0,
        coeff_var=0.110,
        solar_weight=0.3,
        wind_weight=0.2,
        seasonal_weight=0.3,
        noise_weight=0.2,
    ),
    "CAISO": GridSpec(
        code="CAISO",
        description="California: heavy solar, pronounced duck curve",
        minimum=83.0,
        maximum=451.0,
        mean=274.0,
        coeff_var=0.309,
        solar_weight=0.7,
        wind_weight=0.1,
        seasonal_weight=0.1,
        noise_weight=0.1,
    ),
    "ON": GridSpec(
        code="ON",
        description="Ontario: hydro/nuclear baseline, spiky gas peaking",
        minimum=12.0,
        maximum=179.0,
        mean=50.0,
        coeff_var=0.654,
        solar_weight=0.2,
        wind_weight=0.3,
        seasonal_weight=0.1,
        noise_weight=0.4,
    ),
    "DE": GridSpec(
        code="DE",
        description="Germany: wind + solar, strong multi-day variability",
        minimum=130.0,
        maximum=765.0,
        mean=440.0,
        coeff_var=0.280,
        solar_weight=0.35,
        wind_weight=0.4,
        seasonal_weight=0.1,
        noise_weight=0.15,
    ),
    "NSW": GridSpec(
        code="NSW",
        description="New South Wales: coal baseline with midday solar",
        minimum=267.0,
        maximum=817.0,
        mean=647.0,
        coeff_var=0.143,
        solar_weight=0.5,
        wind_weight=0.1,
        seasonal_weight=0.2,
        noise_weight=0.2,
    ),
    "ZA": GridSpec(
        code="ZA",
        description="South Africa: coal-dominated, nearly flat",
        minimum=586.0,
        maximum=785.0,
        mean=713.0,
        coeff_var=0.046,
        solar_weight=0.2,
        wind_weight=0.1,
        seasonal_weight=0.3,
        noise_weight=0.4,
    ),
}

GRID_CODES: tuple[str, ...] = tuple(GRID_SPECS)


def _solar_component(hours: np.ndarray) -> np.ndarray:
    """Midday dip: carbon intensity falls when the sun is up.

    Zero at night, most negative at solar noon. Solar output also varies by
    season (longer, stronger days in summer).
    """
    hour_of_day = hours % HOURS_PER_DAY
    day_of_year = (hours // HOURS_PER_DAY) % 365
    daylight = np.clip(np.sin(np.pi * (hour_of_day - 6.0) / 12.0), 0.0, None)
    season = 0.75 + 0.25 * np.cos(2.0 * np.pi * (day_of_year - 172.0) / 365.0)
    return -daylight * season


def _ar1(n: int, rng: np.random.Generator, memory_hours: float) -> np.ndarray:
    """Unit-variance AR(1) series with ``phi = exp(-1 / memory_hours)``.

    The recurrence steps Python floats, not numpy scalars: the same IEEE
    double operations, so the same bytes, in about half the time.
    """
    phi = np.exp(-1.0 / memory_hours)
    innovations = rng.normal(0.0, np.sqrt(1.0 - phi**2), size=n)
    phi = float(phi)
    series = []
    acc = rng.normal(0.0, 1.0)
    for innovation in innovations.tolist():
        acc = phi * acc + innovation
        series.append(acc)
    return np.array(series)


def _wind_component(n: int, rng: np.random.Generator) -> np.ndarray:
    """Multi-day autocorrelated fluctuation (AR(1) with ~36 h memory)."""
    return _ar1(n, rng, 36.0)


def _seasonal_component(hours: np.ndarray) -> np.ndarray:
    """Annual cycle: higher carbon in winter (heating + less solar)."""
    day_of_year = (hours / HOURS_PER_DAY) % 365.25
    return np.cos(2.0 * np.pi * (day_of_year - 15.0) / 365.25)


def _noise_component(n: int, rng: np.random.Generator) -> np.ndarray:
    """Short-memory hourly noise (AR(1) with ~4 h memory)."""
    return _ar1(n, rng, 4.0)


def _standardize(x: np.ndarray) -> np.ndarray:
    std = x.std()
    if std == 0:
        return np.zeros_like(x)
    return (x - x.mean()) / std


def synthesize_trace(
    grid: str | GridSpec,
    hours: int = PAPER_TRACE_HOURS,
    seed: int | None = 0,
    step_seconds: float = DEFAULT_STEP_SECONDS,
) -> CarbonTrace:
    """Generate a synthetic hourly carbon trace for one grid.

    Parameters
    ----------
    grid:
        A grid code from :data:`GRID_CODES` or a custom :class:`GridSpec`.
    hours:
        Number of hourly points (default: the paper's 26,304 = 3 years).
    seed:
        Seed for the noise components; identical seeds give identical traces.
    step_seconds:
        Simulated seconds per hourly step (see :class:`CarbonTrace`).

    Returns
    -------
    CarbonTrace
        A trace whose marginal statistics approximate the grid's Table 1 row.
    """
    spec = GRID_SPECS[grid] if isinstance(grid, str) else grid
    if hours <= 0:
        raise ValueError("hours must be positive")
    rng = np.random.default_rng(seed)
    hour_index = np.arange(hours, dtype=float)

    components = (
        spec.solar_weight * _standardize(_solar_component(hour_index)),
        spec.wind_weight * _wind_component(hours, rng),
        spec.seasonal_weight * _standardize(_seasonal_component(hour_index)),
        spec.noise_weight * _noise_component(hours, rng),
    )
    signal = _standardize(sum(components))

    # Clipping to [min, max] removes variance, so inflate the target std a
    # little before clipping to land near the Table 1 CoV afterwards.
    inflation = 1.0 + 0.35 * _clip_fraction(signal, spec)
    values = spec.mean + spec.std * inflation * signal
    values = np.clip(values, spec.minimum, spec.maximum)
    return CarbonTrace(values, step_seconds=step_seconds, name=spec.code)


def _clip_fraction(signal: np.ndarray, spec: GridSpec) -> float:
    """Fraction of points a naive rescale would clip at the spec's bounds."""
    raw = spec.mean + spec.std * signal
    clipped = np.mean((raw < spec.minimum) | (raw > spec.maximum))
    return float(clipped)
