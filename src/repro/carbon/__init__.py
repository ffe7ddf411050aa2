"""Carbon-intensity substrate.

This package replaces the paper's historical Electricity Maps traces, which
are not redistributable, with synthetic grid models calibrated to Table 1
(see :mod:`repro.carbon.grids`; ``repro table1`` prints the fit). It
provides:

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
