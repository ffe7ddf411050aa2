"""Service-mode simulation: open-ended streams through a steady-state loop.

``repro.stream`` is the always-on counterpart to the batch experiment
runner: an :class:`~repro.workloads.stream.ArrivalStream` synthesizes jobs
in flight, the engine runs them against a
:class:`~repro.simulator.streaming.StreamingAggregator` trace backend
(O(1) memory), and a :class:`ServiceRunner` drives epochs with periodic
checkpoints and windowed-metric emission. See ``docs/streaming.md``.
"""

from repro.stream.service import (
    ServiceConfig,
    ServiceRunner,
    StreamReport,
    format_stream_report,
    run_service,
)

__all__ = [
    "ServiceConfig",
    "ServiceRunner",
    "StreamReport",
    "format_stream_report",
    "run_service",
]
