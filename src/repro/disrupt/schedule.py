"""Disruption schedules: timed outage, curtailment, and blackout events.

A :class:`DisruptionSchedule` is a deterministic, validated list of
:class:`DisruptionEvent` s describing what goes wrong during a trial and
when. Three kinds of disruption cover the failure modes the ROADMAP's
"region outages / failover routing mid-trial" follow-up names:

- ``outage`` — a region (or the single cluster) loses *all* capacity over
  ``[start, end)``; running tasks are preempted and requeue, queued jobs
  wait (or migrate, if the federation's failover machinery is on);
- ``curtailment`` — demand-response capacity reduction: only
  ``capacity_fraction`` of the executors stay online over the window;
- ``signal-blackout`` — the carbon-intensity API goes stale: schedulers
  keep receiving the last reading taken before ``start`` until ``end``
  (ex-post accounting still uses the true trace — only *decisions* see
  stale data).

This module deliberately has no dependency on the engine or the geo layer,
so both can import it: the schedule is pure data. Schedules are frozen
(hashable) so they can ride inside a
:class:`~repro.geo.config.FederationConfig` and flow through the campaign
store's content-addressed trial keys unchanged.

Determinism: :meth:`DisruptionSchedule.generate` draws events from
``numpy.random.default_rng((seed, _SCHEDULE_SEED_SALT))``, so a pinned seed
always yields the byte-identical schedule, independent of the workload
stream drawn from the same seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Event kinds accepted by :class:`DisruptionEvent`.
EVENT_KINDS: tuple[str, ...] = ("outage", "curtailment", "signal-blackout")

#: Salt mixed into the schedule-generation RNG so generated disruptions are
#: independent of workload synthesis and origin assignment at the same seed.
_SCHEDULE_SEED_SALT = 0xD15


@dataclass(frozen=True)
class DisruptionEvent:
    """One timed disruption.

    Parameters
    ----------
    kind:
        One of :data:`EVENT_KINDS`.
    start, end:
        The disruption window in simulated seconds; the effect applies at
        ``start`` and is lifted at ``end``. Both must be finite — a
        disruption that never ends would leave the engine simulating carbon
        steps forever.
    region:
        Member-region name the event applies to, or ``None`` for
        single-cluster runs (the whole cluster is "the region").
    capacity_fraction:
        For ``curtailment``: the fraction of executors that *stay online*
        (``0 < fraction < 1``). Outages are fraction 0 by definition;
        signal blackouts ignore the field.
    """

    kind: str
    start: float
    end: float
    region: str | None = None
    capacity_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown disruption kind {self.kind!r}; "
                f"choose from {EVENT_KINDS}"
            )
        if not (math.isfinite(self.start) and math.isfinite(self.end)):
            raise ValueError("disruption start/end must be finite")
        if self.start < 0 or self.end <= self.start:
            raise ValueError("need 0 <= start < end")
        if self.kind == "curtailment" and not 0.0 < self.capacity_fraction < 1.0:
            raise ValueError(
                "curtailment needs 0 < capacity_fraction < 1 "
                "(use an outage for a full stop)"
            )

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def affects_capacity(self) -> bool:
        """Outages and curtailments change capacity; blackouts do not."""
        return self.kind in ("outage", "curtailment")

    def online_executors(self, num_executors: int) -> int:
        """Executors that stay online during this event's window."""
        if self.kind == "outage":
            return 0
        if self.kind == "curtailment":
            return max(0, int(num_executors * self.capacity_fraction))
        return num_executors


@dataclass(frozen=True)
class DisruptionSchedule:
    """A validated, immutable sequence of disruption events.

    Capacity events (outage/curtailment) targeting the same region must not
    overlap — the engine restores *full* capacity at each event's end, so
    overlapping windows would be ambiguous. Signal blackouts may overlap
    capacity events (a grid-stress event plausibly takes the carbon API
    down too) but not each other.
    """

    events: tuple[DisruptionEvent, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.events, tuple):
            object.__setattr__(self, "events", tuple(self.events))
        by_lane: dict[tuple[str | None, bool], list[DisruptionEvent]] = {}
        for event in self.events:
            by_lane.setdefault(
                (event.region, event.affects_capacity), []
            ).append(event)
        for (region, _), lane in by_lane.items():
            lane = sorted(lane, key=lambda e: e.start)
            for earlier, later in zip(lane, lane[1:]):
                if later.start < earlier.end:
                    raise ValueError(
                        f"overlapping {earlier.kind}/{later.kind} events in "
                        f"region {region!r}: [{earlier.start}, {earlier.end}) "
                        f"and [{later.start}, {later.end})"
                    )

    # ------------------------------------------------------------------
    def __bool__(self) -> bool:
        return bool(self.events)

    def __len__(self) -> int:
        return len(self.events)

    @classmethod
    def empty(cls) -> "DisruptionSchedule":
        return cls(events=())

    def region_names(self) -> tuple[str, ...]:
        """Distinct region names referenced by events (``None`` excluded)."""
        seen: dict[str, None] = {}
        for event in self.events:
            if event.region is not None:
                seen.setdefault(event.region)
        return tuple(seen)

    def events_for(self, region: str | None) -> tuple[DisruptionEvent, ...]:
        """Events targeting one region, in start-time order."""
        return tuple(
            sorted(
                (e for e in self.events if e.region == region),
                key=lambda e: (e.start, e.kind),
            )
        )

    def outages(self) -> tuple[DisruptionEvent, ...]:
        return tuple(
            sorted(
                (e for e in self.events if e.kind == "outage"),
                key=lambda e: (e.start, e.region or ""),
            )
        )

    def online_executors_at(
        self, region: str | None, t: float, num_executors: int
    ) -> int:
        """Executors online in ``region`` at time ``t`` under this schedule."""
        for event in self.events:
            if (
                event.region == region
                and event.affects_capacity
                and event.start <= t < event.end
            ):
                return event.online_executors(num_executors)
        return num_executors

    def shifted(self, offset: float) -> "DisruptionSchedule":
        """The same schedule with every window moved by ``offset`` seconds."""
        return DisruptionSchedule(
            events=tuple(
                DisruptionEvent(
                    kind=e.kind,
                    start=e.start + offset,
                    end=e.end + offset,
                    region=e.region,
                    capacity_fraction=e.capacity_fraction,
                )
                for e in self.events
            )
        )

    # ------------------------------------------------------------------
    @classmethod
    def generate(
        cls,
        seed: int,
        regions: tuple[str | None, ...] = (None,),
        horizon_s: float = 3600.0,
        num_outages: int = 1,
        mean_outage_s: float = 600.0,
        num_curtailments: int = 0,
        mean_curtailment_s: float = 900.0,
        curtailment_fraction: float = 0.5,
        num_blackouts: int = 0,
        mean_blackout_s: float = 1200.0,
    ) -> "DisruptionSchedule":
        """A seeded random schedule: pinned seed → byte-identical events.

        Event counts are totals across all regions; each event picks a
        region uniformly, a start uniformly over the horizon, and an
        exponential duration (clipped to at least 60 s). Windows that would
        overlap an already-placed capacity event in the same region are
        re-drawn (bounded retries), so generated schedules always validate.
        """
        rng = np.random.default_rng((seed, _SCHEDULE_SEED_SALT))
        events: list[DisruptionEvent] = []

        def _place(kind: str, mean_s: float, fraction: float) -> None:
            for _ in range(64):  # bounded retries to avoid overlaps
                region = regions[int(rng.integers(len(regions)))]
                start = float(rng.uniform(0.0, horizon_s))
                duration = max(60.0, float(rng.exponential(mean_s)))
                candidate = DisruptionEvent(
                    kind=kind,
                    start=start,
                    end=start + duration,
                    region=region,
                    capacity_fraction=(
                        fraction if kind == "curtailment" else 0.0
                    ),
                )
                try:
                    DisruptionSchedule(events=(*events, candidate))
                except ValueError:
                    continue
                events.append(candidate)
                return

        for _ in range(num_outages):
            _place("outage", mean_outage_s, 0.0)
        for _ in range(num_curtailments):
            _place("curtailment", mean_curtailment_s, curtailment_fraction)
        for _ in range(num_blackouts):
            _place("signal-blackout", mean_blackout_s, 0.0)
        return cls(events=tuple(events))
