"""Carbon-intensity substrate.

This package replaces the paper's historical Electricity Maps traces with
synthetic, statistically calibrated grid models (see DESIGN.md, Section 2).
It provides:

- :class:`~repro.carbon.trace.CarbonTrace` — an hourly carbon-intensity
  series mapped onto simulation time.
- :mod:`~repro.carbon.grids` — six grid generators calibrated to Table 1 of
  the paper (PJM, CAISO, ON, DE, NSW, ZA).
- :mod:`~repro.carbon.forecast` — the 48-hour lookahead ``L``/``U`` bounds
  the schedulers consume.
- :class:`~repro.carbon.api.CarbonIntensityAPI` — a replaying "API" daemon
  mirroring the prototype's Electricity Maps client.
"""

from repro._lazy import lazy_exports

_SUBMODULE_OF = {
    "CarbonIntensityAPI": "api",
    **dict.fromkeys(("CarbonForecaster", "forecast_bounds"), "forecast"),
    **dict.fromkeys(
        ("GRID_CODES", "GRID_SPECS", "GridSpec", "synthesize_trace"), "grids"
    ),
    **dict.fromkeys(("CarbonTrace", "TraceStats"), "trace"),
}
__getattr__ = lazy_exports(__name__, _SUBMODULE_OF)
__all__ = sorted(_SUBMODULE_OF)
