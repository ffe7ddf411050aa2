"""repro.disrupt — disruption & resilience subsystem.

Real carbon-aware fleets lose regions, get curtailed during grid-stress
events, and see their carbon-signal feeds go stale. This package injects
those failures into simulations as a deterministic, seeded
:class:`DisruptionSchedule` and measures how the system copes:

- :mod:`repro.disrupt.schedule` — :class:`DisruptionEvent` /
  :class:`DisruptionSchedule`: validated, hashable, seeded-generatable
  timelines of outages, capacity curtailments, and signal blackouts;
- :mod:`repro.disrupt.inject` — translate a schedule into engine events on
  a :class:`~repro.simulator.engine.SimulationStepper` (whose
  ``set_capacity`` / ``suspend`` / ``resume`` verbs preempt running tasks
  and requeue their jobs deterministically);
- :mod:`repro.disrupt.metrics` — :class:`DisruptionReport`: goodput,
  wasted (preempted) executor-seconds, rerouted/migrated job counts, the
  carbon penalty of failover, and per-event recovery latency.

Federation-level reactions (failover routing around down regions,
mid-trial migration of queued jobs) live in :mod:`repro.geo`; the
matchups and campaign presets in :mod:`repro.experiments.disrupt` and the
``disrupt-sweep`` campaign tie it all together. With an empty schedule
every path replays bit-identically to the undisrupted engine.

**Honest finding — failover costs carbon.** Resilience and carbon pull
in opposite directions here: in the pinned full benchmark (a long outage
of the cleanest region through most of the arrival window), failover
raises on-time completions 2/48 → 28/48 and cuts ECT by ~27%, but total
carbon rises +282 g vs riding the outage out (+291 g vs undisrupted,
~2.3×). The diverted jobs execute in dirtier grids and migrated inputs
ship twice; the migration transfer itself is small (<5 g). Failover
should be a policy knob weighed against deadline pressure, not a
default-on win — the :class:`DisruptionReport` ledger exists so trials
surface this trade instead of hiding it.
"""

from repro._lazy import lazy_exports

_SUBMODULE_OF = {
    **dict.fromkeys(
        ("DisruptedRun", "install_disruptions", "run_disrupted_experiment"),
        "inject",
    ),
    **dict.fromkeys(
        (
            "DisruptionReport",
            "cluster_disruption_report",
            "federation_disruption_report",
            "jobs_completed_by",
        ),
        "metrics",
    ),
    **dict.fromkeys(
        ("EVENT_KINDS", "DisruptionEvent", "DisruptionSchedule"), "schedule"
    ),
}
__getattr__ = lazy_exports(__name__, _SUBMODULE_OF)
__all__ = sorted(_SUBMODULE_OF)
