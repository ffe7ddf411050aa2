"""The service runner: steady-state epochs over an open-ended stream.

:class:`ServiceRunner` wires the three streaming pieces together:

- an :class:`~repro.workloads.stream.ArrivalStream` keeps the engine's
  event heap primed with O(1) pending arrivals;
- the :class:`~repro.simulator.engine.SimulationStepper` runs with a
  :class:`~repro.simulator.streaming.StreamingAggregator` trace backend, so
  nothing is materialized;
- finished jobs are retired out of the engine each epoch
  (:meth:`~repro.simulator.engine.SimulationStepper.retire_finished`),
  folding their completion metrics on the way out.

Epochs are event-count slices of the run. At epoch boundaries the runner
emits windowed gauges into the active observer's registry (when ``--obs``
is on), invokes the ``on_epoch`` callback, and — every
``checkpoint_every_epochs`` — writes a crash-consistent checkpoint from
which :meth:`ServiceRunner.restore` resumes bit-identically (the stepper
checkpoint carries the aggregator, and the arrival stream pickles its
generator state exactly). The gauges read the aggregator but never touch
RNG state or event ordering, so observing a run leaves its schedule
byte-identical (pinned by ``tests/test_obs_fingerprints.py``).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro import obs
from repro.experiments.runner import ExperimentConfig, simulation_for
from repro.ioutil import atomic_write_bytes
from repro.obs.metrics import MetricsRegistry
from repro.simulator.engine import SimulationStepper
from repro.simulator.streaming import StreamingAggregator
from repro.workloads.stream import ArrivalStream, StreamSpec

#: Filename of the rolling service checkpoint inside ``checkpoint_dir``.
CHECKPOINT_FILENAME = "service.ckpt"


@dataclass(frozen=True)
class ServiceConfig:
    """One service-mode run: an experiment shape plus a stream and cadence.

    ``experiment`` names the scheduler / cluster / carbon slice exactly as
    batch trials do (its ``workload`` field is ignored — the stream replaces
    it); ``stream`` names the arrival process. The remaining fields set the
    service cadence and are *not* part of the determinism contract: epoch
    size, checkpoint cadence, and window width never change the schedule.
    """

    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)
    stream: StreamSpec = field(default_factory=StreamSpec)
    #: Simulated seconds per recent-history window.
    window_s: float = 600.0
    #: Closed windows retained in the aggregator's ring.
    ring_windows: int = 168
    #: Engine events processed per epoch.
    epoch_events: int = 4096
    #: Write a checkpoint every N epochs (0 disables checkpointing).
    checkpoint_every_epochs: int = 0
    checkpoint_dir: str | None = None

    def __post_init__(self) -> None:
        if self.window_s <= 0:
            raise ValueError("window_s must be positive")
        if self.ring_windows <= 0:
            raise ValueError("ring_windows must be positive")
        if self.epoch_events <= 0:
            raise ValueError("epoch_events must be positive")
        if self.checkpoint_every_epochs < 0:
            raise ValueError("checkpoint_every_epochs must be >= 0")
        if self.checkpoint_every_epochs > 0 and not self.checkpoint_dir:
            raise ValueError(
                "checkpoint_dir is required when checkpointing is enabled"
            )


@dataclass(frozen=True)
class StreamReport:
    """What a finished (or drained) service run measured."""

    scheduler: str
    epochs: int
    events_processed: int
    jobs_arrived: int
    jobs_completed: int
    jobs_active: int
    open_tasks: int
    checkpoints_written: int
    drained: bool
    summary: dict[str, Any]
    fingerprint: str
    jct_moments: dict[str, float]
    stretch_moments: dict[str, float]
    windows: list[dict[str, Any]]

    def to_dict(self) -> dict[str, Any]:
        return {
            "scheduler": self.scheduler,
            "epochs": self.epochs,
            "events_processed": self.events_processed,
            "jobs_arrived": self.jobs_arrived,
            "jobs_completed": self.jobs_completed,
            "jobs_active": self.jobs_active,
            "open_tasks": self.open_tasks,
            "checkpoints_written": self.checkpoints_written,
            "drained": self.drained,
            "summary": dict(self.summary),
            "fingerprint": self.fingerprint,
            "jct_moments": dict(self.jct_moments),
            "stretch_moments": dict(self.stretch_moments),
            "windows": [dict(w) for w in self.windows],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "StreamReport":
        """Rebuild a report from :meth:`to_dict` output (CLI re-render)."""
        return cls(**{f: data[f] for f in cls.__dataclass_fields__})


class ServiceRunner:
    """Drive an open-ended stream through the engine in epochs.

    The loop invariant, per event step: every stream arrival at or before
    the engine's next event has been submitted (``ArrivalStream.feed``), so
    events are processed in global time order and the run is bit-identical
    to submitting the same jobs up front — the streaming equivalence tests
    pin this against the materialized batch path.
    """

    def __init__(
        self,
        config: ServiceConfig,
        on_epoch: Callable[["ServiceRunner"], None] | None = None,
    ) -> None:
        self.config = config
        self.on_epoch = on_epoch
        sim = simulation_for(config.experiment)
        self.aggregator = StreamingAggregator(
            total_executors=sim.config.num_executors,
            carbon=sim.carbon_api.trace,
            idle_power_fraction=sim.config.idle_power_fraction,
            window_s=config.window_s,
            ring_windows=config.ring_windows,
        )
        self.stepper = sim.stepper(trace=self.aggregator)
        self.stream = ArrivalStream(config.stream)
        #: job_id -> (arrival time, serial work) for in-flight jobs.
        self._job_meta: dict[int, tuple[float, float]] = {}
        self.epochs = 0
        self.checkpoints_written = 0
        self._draining = False
        self.sim_now = 0.0

    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        """No events left and no further arrivals will be admitted."""
        return not self.stepper.events and (
            self._draining or self.stream.exhausted
        )

    @property
    def jobs_active(self) -> int:
        return len(self.stepper.active)

    def drain(self) -> None:
        """Graceful stop: admit no new jobs, let in-flight work finish."""
        self._draining = True

    @property
    def registry(self) -> MetricsRegistry | None:
        """The active observer's registry when ``--obs`` is on, else
        ``None``."""
        observer = obs.current()
        return observer.registry if observer is not None else None

    # ------------------------------------------------------------------
    def _admit(self) -> None:
        """Prime the heap with pending arrivals (unless draining)."""
        if self._draining:
            return
        for sub in self.stream.feed(self.stepper):
            self.aggregator.observe_arrival(sub.job_id, sub.arrival_time)
            self._job_meta[sub.job_id] = (
                sub.arrival_time,
                sub.dag.total_work,
            )

    def _retire(self) -> None:
        """Fold completions and garbage-collect finished jobs' state."""
        if self.config.stream.gc_policy == "retire":
            for job_id, arrival, finish, _work in (
                self.stepper.retire_finished()
            ):
                _arrival, work = self._job_meta.pop(job_id)
                self.aggregator.observe_finish(
                    job_id, arrival, finish, serial_work=work
                )
        else:  # "keep": observe without removing engine state (debug runs)
            # Walk the in-flight jobs only; _job_meta's insertion order is
            # admission order, the order retire_finished() reports in.
            jobs = self.stepper.jobs
            done = [
                job_id
                for job_id in self._job_meta
                if job_id in jobs and jobs[job_id].done
            ]
            for job_id in done:
                _arrival, work = self._job_meta.pop(job_id)
                job = jobs[job_id]
                self.aggregator.observe_finish(
                    job_id,
                    job.arrival_time,
                    job.finish_time,
                    serial_work=work,
                )

    def run_epoch(self) -> bool:
        """Process up to ``epoch_events`` events; False when finished."""
        target = self.stepper.events_processed + self.config.epoch_events
        while self.stepper.events_processed < target:
            self._admit()
            if not self.stepper.events:
                break
            self.sim_now = self.stepper.step()
            self._retire()
        self.epochs += 1
        self._emit_obs()
        if (
            self.config.checkpoint_every_epochs
            and self.epochs % self.config.checkpoint_every_epochs == 0
        ):
            self.write_checkpoint()
        if self.on_epoch is not None:
            self.on_epoch(self)
        return not self.finished

    def run(self, max_epochs: int | None = None) -> StreamReport:
        """Run epochs until the stream drains (or ``max_epochs``)."""
        while max_epochs is None or self.epochs < max_epochs:
            if not self.run_epoch():
                break
        return self.report()

    # ------------------------------------------------------------------
    def _emit_obs(self) -> None:
        registry = self.registry
        if registry is None:
            return
        registry.gauge("stream.epochs").set(self.epochs)
        registry.gauge("stream.jobs_arrived").set(self.aggregator.jobs_arrived)
        registry.gauge("stream.jobs_completed").set(
            self.aggregator.jobs_completed
        )
        registry.gauge("stream.jobs_active").set(self.jobs_active)
        registry.gauge("stream.open_tasks").set(
            self.aggregator.open_task_count
        )
        registry.gauge("stream.windows_closed").set(
            self.aggregator.windows_closed
        )
        windows = self.aggregator.recent_windows()
        if windows:
            latest = windows[-1]
            registry.gauge("stream.window.avg_jct").set(latest["avg_jct"])
            registry.gauge("stream.window.busy_s").set(latest["busy_s"])
            registry.gauge("stream.window.carbon").set(latest["carbon"])

    # ------------------------------------------------------------------
    def checkpoint(self) -> bytes:
        """Serialize the whole service — engine (with its aggregator),
        stream generator state, in-flight metadata — as one blob."""
        payload = {
            "config": self.config,
            "stepper": self.stepper.checkpoint(),
            "stream": self.stream,
            "job_meta": self._job_meta,
            "epochs": self.epochs,
            "draining": self._draining,
            "sim_now": self.sim_now,
        }
        return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)

    def write_checkpoint(self) -> Path:
        directory = Path(self.config.checkpoint_dir or ".")
        path = directory / CHECKPOINT_FILENAME
        atomic_write_bytes(path, self.checkpoint())
        self.checkpoints_written += 1
        return path

    @classmethod
    def restore(
        cls,
        blob: bytes,
        on_epoch: Callable[["ServiceRunner"], None] | None = None,
    ) -> "ServiceRunner":
        """Rebuild a runner from :meth:`checkpoint` output.

        The determinism contract (pinned by ``tests/test_stream.py``):
        restoring at any epoch boundary and continuing produces metrics
        bit-identical to the uninterrupted run.
        """
        payload = pickle.loads(blob)
        runner = cls.__new__(cls)
        runner.config = payload["config"]
        runner.on_epoch = on_epoch
        runner.stepper = SimulationStepper.restore(payload["stepper"])
        trace = runner.stepper.trace
        if not isinstance(trace, StreamingAggregator):
            raise TypeError("checkpoint does not hold a streaming run")
        runner.aggregator = trace
        runner.stream = payload["stream"]
        runner._job_meta = payload["job_meta"]
        runner.epochs = payload["epochs"]
        runner._draining = payload["draining"]
        runner.sim_now = payload.get("sim_now", 0.0)
        runner.checkpoints_written = 0
        return runner

    # ------------------------------------------------------------------
    def report(self) -> StreamReport:
        """Snapshot everything measured so far (final after a drain)."""
        if self.finished:
            self.aggregator.finalize()
        return StreamReport(
            scheduler=self.config.experiment.scheduler,
            epochs=self.epochs,
            events_processed=self.stepper.events_processed,
            jobs_arrived=self.aggregator.jobs_arrived,
            jobs_completed=self.aggregator.jobs_completed,
            jobs_active=self.jobs_active,
            open_tasks=self.aggregator.open_task_count,
            checkpoints_written=self.checkpoints_written,
            drained=self.finished,
            summary=self.aggregator.summary_metrics(),
            fingerprint=self.aggregator.metrics_fingerprint(),
            jct_moments=self.aggregator.jct_moments.as_dict(),
            stretch_moments=self.aggregator.stretch_moments.as_dict(),
            windows=self.aggregator.recent_windows(),
        )


def run_service(
    config: ServiceConfig,
    max_epochs: int | None = None,
    on_epoch: Callable[[ServiceRunner], None] | None = None,
) -> StreamReport:
    """Convenience wrapper: build a runner and drive it to completion."""
    return ServiceRunner(config, on_epoch=on_epoch).run(max_epochs=max_epochs)


def format_stream_report(report: StreamReport) -> str:
    """Human-readable summary for ``repro stream run/report``."""
    summary = report.summary
    lines = [
        f"service run: {report.scheduler}",
        f"  epochs                {report.epochs}",
        f"  events processed      {report.events_processed}",
        f"  jobs arrived          {report.jobs_arrived}",
        f"  jobs completed        {report.jobs_completed}",
        f"  jobs in flight        {report.jobs_active}",
        f"  drained               {'yes' if report.drained else 'no'}",
        f"  checkpoints           {report.checkpoints_written}",
        f"  carbon footprint      {summary['carbon_footprint']:.2f}",
        f"  ect                   {summary['ect']:.1f} s",
        f"  avg jct               {summary['avg_jct']:.1f} s"
        f" (std {report.jct_moments['std']:.1f})",
        f"  utilization           {summary['utilization']:.3f}",
        f"  fingerprint           {report.fingerprint[:16]}",
    ]
    if report.stretch_moments["count"]:
        lines.append(
            f"  stretch               {report.stretch_moments['mean']:.2f}"
            f" (std {report.stretch_moments['std']:.2f})"
        )
    if report.windows:
        lines.append(f"  recent windows        {len(report.windows)}")
        for window in report.windows[-5:]:
            lines.append(
                f"    [{window['start']:>10.0f}s] "
                f"jobs={window['jobs_completed']:<4d} "
                f"avg_jct={window['avg_jct']:>8.1f}s "
                f"busy={window['busy_s']:>10.1f}s"
            )
    return "\n".join(lines)


__all__ = [
    "CHECKPOINT_FILENAME",
    "ServiceConfig",
    "ServiceRunner",
    "StreamReport",
    "format_stream_report",
    "run_service",
]
