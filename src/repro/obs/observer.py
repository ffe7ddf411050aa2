"""Observer lifecycle: the process-wide collection switch.

Collection is off by default and the disabled state is the cheap one:
:func:`current` returns ``None``, every instrumented component caches that
``None`` once at construction, and each probe site costs one attribute
load plus an ``is None`` test — no method call, no dictionary lookup, no
wrapper object. :func:`enable` installs a process-wide :class:`Observer`
(a :class:`~repro.obs.metrics.MetricsRegistry` plus a
:class:`~repro.obs.tracing.SpanTracer`); components built *after* that
point collect into it.

The determinism contract: observers only ever count, time, and record —
they never read or advance random state, never reorder events, and never
feed a value back into a scheduling decision. The fingerprint suite
(``tests/test_obs_fingerprints.py``) enforces this by replaying the nine
pinned scenarios with collection on and asserting byte-identical
schedules.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from repro.obs.metrics import Counter, MetricsRegistry
from repro.obs.tracing import SpanTracer

#: Default directory for ``--obs`` artifacts, next to the campaign store.
DEFAULT_OBS_DIR = "obs"

METRICS_FILENAME = "metrics.jsonl"
TRACE_FILENAME = "trace.json"


class FrontierCacheStats:
    """Hit/miss counters of the engine's frontier table.

    A *matrix* hit is a frontier served while no job was marked or
    touched, so the table's matrix was reused as it stood; a miss is a
    serve that first refreshed those jobs. At each refresh every active
    job counts one
    *column* hit (its block reused) or miss (its block rebuilt, or its
    touched rows patched).

    One instance per stepper, handed to every :class:`ClusterView` it
    builds, which passes it to the table. ``None`` in the view means
    "don't count" (the obs-off fast path).
    """

    __slots__ = (
        "column_hits", "column_misses",
        "matrix_hits", "matrix_misses",
    )

    def __init__(self, registry: MetricsRegistry) -> None:
        self.column_hits = registry.counter("engine.cache.column.hits")
        self.column_misses = registry.counter("engine.cache.column.misses")
        self.matrix_hits = registry.counter("engine.cache.matrix.hits")
        self.matrix_misses = registry.counter("engine.cache.matrix.misses")


def hit_rate(
    hits: Counter | int | float, misses: Counter | int | float
) -> float | None:
    """``hits / (hits + misses)``, or ``None`` with no consults.

    Accepts :class:`Counter` instruments or plain numbers (e.g. values
    re-read from a JSONL snapshot).
    """
    h = hits.value if isinstance(hits, Counter) else hits
    m = misses.value if isinstance(misses, Counter) else misses
    consults = h + m
    return h / consults if consults else None


class Observer:
    """One collection session: a metrics registry plus a span tracer."""

    def __init__(self, label: str = "") -> None:
        self.label = label
        self.registry = MetricsRegistry()
        self.tracer = SpanTracer()

    def write_artifacts(self, directory: str | Path) -> tuple[Path, Path]:
        """Write ``metrics.jsonl`` and ``trace.json`` under ``directory``."""
        directory = Path(directory)
        metrics_path = self.registry.write_jsonl(
            directory / METRICS_FILENAME, meta={"label": self.label}
        )
        trace_path = self.tracer.write(directory / TRACE_FILENAME)
        return metrics_path, trace_path


#: The process-wide observer; ``None`` means collection is off.
_OBSERVER: Observer | None = None


def enable(label: str = "") -> Observer:
    """Turn collection on (replacing any previous observer)."""
    global _OBSERVER
    _OBSERVER = Observer(label)
    return _OBSERVER


def disable() -> None:
    """Turn collection off. Existing components keep their cached refs."""
    global _OBSERVER
    _OBSERVER = None


def current() -> Observer | None:
    """The active observer, or ``None`` when collection is off."""
    return _OBSERVER


def is_enabled() -> bool:
    return _OBSERVER is not None


@contextmanager
def collecting(label: str = "") -> Iterator[Observer]:
    """Scoped collection: enable, yield the observer, restore the prior
    state on exit (tests and the perf harness use this)."""
    global _OBSERVER
    previous = _OBSERVER
    observer = Observer(label)
    _OBSERVER = observer
    try:
        yield observer
    finally:
        _OBSERVER = previous


#: ``--log-level`` choices, lowercase (argparse-friendly).
LOG_LEVELS: tuple[str, ...] = ("debug", "info", "warning", "error")


def configure_logging(level: str = "warning") -> logging.Logger:
    """Configure the ``repro`` logger tree for CLI use.

    Handlers write to stderr (stdout is reserved for command output), the
    format is stable for grepping, and repeat calls reconfigure the level
    without stacking handlers.
    """
    if level not in LOG_LEVELS:
        raise ValueError(f"unknown log level {level!r}; choose from {LOG_LEVELS}")
    logger = logging.getLogger("repro")
    if not logger.handlers:
        handler = logging.StreamHandler()  # stderr by default
        handler.setFormatter(
            logging.Formatter("%(asctime)s %(levelname)s %(name)s: %(message)s")
        )
        logger.addHandler(handler)
    logger.setLevel(level.upper())
    logger.propagate = False
    return logger
