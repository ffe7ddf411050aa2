"""Installing a disruption schedule into a simulation.

The engine stays generic — :class:`~repro.simulator.engine.SimulationStepper`
exposes capacity and signal verbs but knows nothing about schedules. This
module is the bridge: :func:`install_disruptions` translates a
:class:`~repro.disrupt.schedule.DisruptionSchedule` into engine events on
one stepper, and :func:`run_disrupted_experiment` is the single-cluster
entry point mirroring :func:`repro.experiments.runner.run_experiment`.

Installing an *empty* schedule pushes no events, so the run replays
bit-identically to the undisrupted engine — the invariant the fingerprint
tests pin.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.disrupt.schedule import DisruptionSchedule
from repro.experiments.runner import (
    ExperimentConfig,
    simulation_for,
    workload_for,
)
from repro.obs.observer import current as _current_observer
from repro.simulator.engine import SimulationStepper
from repro.simulator.metrics import ExperimentResult


def install_disruptions(
    stepper: SimulationStepper,
    schedule: DisruptionSchedule,
    region: str | None = None,
) -> int:
    """Schedule ``region``'s disruption events on one engine stepper.

    Outages and curtailments become paired capacity events (drop at
    ``start``, restore to full at ``end``); signal blackouts freeze the
    scheduler-visible carbon reading over their window. Returns the number
    of schedule events installed. Call before (or while) driving the
    stepper — events must not predate already-processed timestamps.
    """
    num_executors = stepper.sim.config.num_executors
    events = schedule.events_for(region)
    observer = _current_observer()
    for event in events:
        if event.affects_capacity:
            stepper.schedule_capacity(
                event.start, event.online_executors(num_executors)
            )
            stepper.schedule_capacity(event.end, num_executors)
        else:
            stepper.schedule_signal_blackout(event.start, event.end)
        if observer is not None:
            observer.registry.counter(f"disrupt.events.{event.kind}").inc()
            observer.tracer.sim_span(
                event.kind,
                event.start,
                event.end,
                cat="disrupt",
                track=region or "cluster",
                capacity_fraction=event.capacity_fraction,
            )
    return len(events)


@dataclass(frozen=True)
class DisruptedRun:
    """A single-cluster disrupted trial: the result plus the schedule."""

    result: ExperimentResult
    schedule: DisruptionSchedule
    preempted_tasks: int


def run_disrupted_experiment(
    config: ExperimentConfig,
    schedule: DisruptionSchedule,
    region: str | None = None,
) -> DisruptedRun:
    """Run one single-cluster experiment under a disruption schedule.

    Drives the simulation :func:`~repro.experiments.runner.simulation_for`
    builds, on the memoized workload
    :func:`~repro.experiments.runner.run_experiment` runs, through a
    stepper with the schedule installed. With ``DisruptionSchedule.empty()``
    the result is bit-identical to ``run_experiment(config)``.
    """
    stepper = simulation_for(config).stepper()
    for sub in workload_for(config):
        stepper.submit(sub)
    install_disruptions(stepper, schedule, region=region)
    stepper.run_to_completion()
    return DisruptedRun(
        result=stepper.result(),
        schedule=schedule,
        preempted_tasks=stepper.preempted_tasks,
    )
