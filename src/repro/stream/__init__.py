"""Service-mode simulation: open-ended streams through a steady-state loop.

``repro.stream`` is the always-on counterpart to the batch experiment
runner: an :class:`~repro.workloads.stream.ArrivalStream` synthesizes jobs
in flight, the engine runs them against a
:class:`~repro.simulator.streaming.StreamingAggregator` trace backend
(O(1) memory), and a :class:`ServiceRunner` drives epochs with periodic
checkpoints and windowed-metric emission. See ``docs/streaming.md``.
"""

from repro._lazy import lazy_exports

_SUBMODULE_OF = dict.fromkeys(
    (
        "ServiceConfig",
        "ServiceRunner",
        "StreamReport",
        "format_stream_report",
        "run_service",
    ),
    "service",
)
__getattr__ = lazy_exports(__name__, _SUBMODULE_OF)
__all__ = sorted(_SUBMODULE_OF)
