"""Pluggable routing policies: which region runs an arriving job.

Each policy sees one :class:`RegionSnapshot` per region — occupancy, queue
backlog, current carbon intensity, and the 48-hour forecast bounds ``(L,U)``
— and returns the index of the region that should run the job. Policies
never see the future carbon trace (the same honesty constraint the paper's
schedulers obey); the carbon-aware ones act on the current reading and the
forecast bounds only.

Ties always break toward the lower region index, so routing decisions are a
pure function of the snapshots — the determinism the federation's
content-addressed caching relies on.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.dag.metrics import critical_path_length
from repro.geo.config import (
    DEFAULT_EXECUTOR_POWER_KW,
    ROUTING_POLICY_NAMES,
    TransferModel,
)
from repro.workloads.arrivals import JobSubmission


@dataclass(frozen=True)
class RegionSnapshot:
    """What a routing policy may observe about one region at a decision.

    ``outstanding_work`` counts executor-seconds of not-yet-finished work
    (running, queued, and already-routed-but-not-arrived jobs), the
    federation's load signal. ``forecast_low``/``forecast_high`` are the
    scheduler-visible ``(L, U)`` bounds over the region's lookahead window.
    """

    index: int
    name: str
    grid: str
    time: float
    total_executors: int
    busy_executors: int
    queued_jobs: int
    outstanding_work: float
    carbon_intensity: float
    forecast_low: float
    forecast_high: float
    #: Executors currently online (differs from ``total_executors`` only
    #: while a disruption curtails the region). ``None`` means "no
    #: disruption machinery in play": the region is fully up.
    online_executors: int | None = None

    @property
    def load(self) -> float:
        """Backlog normalized by capacity: executor-seconds per executor."""
        return self.outstanding_work / self.total_executors

    @property
    def is_up(self) -> bool:
        """False only while the region has zero online executors."""
        return self.online_executors is None or self.online_executors > 0


class RoutingPolicy(ABC):
    """Interface every federation routing policy implements.

    ``snapshots`` may be any subset of the federation's regions (each
    snapshot carries its absolute ``index``); policies must return the
    ``index`` field of one of the snapshots they were given. The failover
    wrapper relies on this to re-route over the up-region subset.
    """

    name: str = "routing"

    def reset(self) -> None:
        """Clear internal state before a (re)run."""

    @abstractmethod
    def route(
        self,
        sub: JobSubmission,
        origin: int,
        snapshots: Sequence[RegionSnapshot],
        origin_snapshot: RegionSnapshot | None = None,
    ) -> int:
        """Index of the region that should run ``sub``.

        ``origin`` is the absolute index of the job's origin region;
        ``origin_snapshot`` supplies its snapshot when the origin may not
        appear in ``snapshots`` (e.g. it is down and was filtered out).
        """


class RoundRobinRouting(RoutingPolicy):
    """Cycle through regions in order, ignoring all state.

    The carbon- and load-agnostic baseline every other policy is normalized
    against (the spatial analogue of the paper's FIFO baseline).
    """

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def reset(self) -> None:
        self._next = 0

    def route(
        self,
        sub: JobSubmission,
        origin: int,
        snapshots: Sequence[RegionSnapshot],
        origin_snapshot: RegionSnapshot | None = None,
    ) -> int:
        choice = snapshots[self._next % len(snapshots)].index
        self._next += 1
        return choice


class QueueAwareRouting(RoutingPolicy):
    """Least-loaded: the region with the smallest normalized backlog."""

    name = "queue-aware"

    def route(
        self,
        sub: JobSubmission,
        origin: int,
        snapshots: Sequence[RegionSnapshot],
        origin_snapshot: RegionSnapshot | None = None,
    ) -> int:
        return min(snapshots, key=lambda s: (s.load, s.index)).index


class CarbonGreedyRouting(RoutingPolicy):
    """Lowest current carbon intensity, blind to load and transfer cost."""

    name = "carbon-greedy"

    def route(
        self,
        sub: JobSubmission,
        origin: int,
        snapshots: Sequence[RegionSnapshot],
        origin_snapshot: RegionSnapshot | None = None,
    ) -> int:
        return min(snapshots, key=lambda s: (s.carbon_intensity, s.index)).index


class CarbonForecastRouting(RoutingPolicy):
    """Minimize the job's expected end-to-end footprint, transfer included.

    For each candidate region the policy estimates the job's service window
    (queue wait from the backlog, runtime from the classic makespan bounds
    ``max(critical path, work/K)``) and prices the job's energy at a blend
    of the current intensity and the forecast-window midpoint ``(L+U)/2`` —
    the longer the job, the more the window mean matters. Shipping the
    input data to a remote region is charged through the federation's
    :class:`~repro.geo.config.TransferModel`, so a marginally greener grid
    across the planet loses to a nearby one.
    """

    name = "carbon-forecast"

    def __init__(
        self,
        transfer: TransferModel | None = None,
        executor_power_kw: float = DEFAULT_EXECUTOR_POWER_KW,
    ) -> None:
        self.transfer = transfer if transfer is not None else TransferModel()
        self.executor_power_kw = executor_power_kw

    def expected_footprint_g(
        self, sub: JobSubmission, origin: RegionSnapshot, dest: RegionSnapshot
    ) -> float:
        """Expected grams for running ``sub`` in ``dest`` (transfer incl.)."""
        dag = sub.dag
        wait = dest.outstanding_work / dest.total_executors
        runtime = max(
            critical_path_length(dag), dag.total_work / dest.total_executors
        )
        horizon = wait + runtime
        window_mean = 0.5 * (dest.forecast_low + dest.forecast_high)
        # Short jobs run at ~the current intensity; long (or queued) jobs
        # average over the forecast window. Blend by the service horizon
        # relative to one forecast lookahead's worth of simulated time.
        blend = min(1.0, horizon / 3600.0)
        expected_intensity = (
            (1.0 - blend) * dest.carbon_intensity + blend * window_mean
        )
        energy_kwh = dag.total_work / 3600.0 * self.executor_power_kw
        compute_g = energy_kwh * expected_intensity
        transfer_g = self.transfer.transfer_carbon_g(
            dag,
            origin.carbon_intensity,
            dest.carbon_intensity,
            same_region=origin.index == dest.index,
        )
        return compute_g + transfer_g

    def route(
        self,
        sub: JobSubmission,
        origin: int,
        snapshots: Sequence[RegionSnapshot],
        origin_snapshot: RegionSnapshot | None = None,
    ) -> int:
        if origin_snapshot is not None:
            src = origin_snapshot
        else:
            src = next(s for s in snapshots if s.index == origin)
        return min(
            snapshots,
            key=lambda s: (self.expected_footprint_g(sub, src, s), s.index),
        ).index


class FailoverRouting(RoutingPolicy):
    """Wrap any routing policy with down-region avoidance.

    The inner policy routes over the full snapshot list as usual; if its
    choice is a region with zero online executors, the wrapper re-invokes
    it over the up-region subset and logs the diversion in
    :attr:`reroutes`. When *every* region is down the inner choice stands —
    the job queues there until recovery. The wrapper is what
    :class:`~repro.geo.federation.Federation` installs when a
    :class:`~repro.disrupt.schedule.DisruptionSchedule` is present and
    ``failover`` is enabled; with no disruptions it never diverts, so
    wrapping is behavior-neutral.
    """

    def __init__(self, inner: RoutingPolicy) -> None:
        self.inner = inner
        self.name = f"failover({inner.name})"
        #: ``(job_id, avoided_region_index, chosen_region_index)`` per
        #: diversion, in decision order.
        self.reroutes: list[tuple[int, int, int]] = []

    def reset(self) -> None:
        self.inner.reset()
        self.reroutes = []

    def route(
        self,
        sub: JobSubmission,
        origin: int,
        snapshots: Sequence[RegionSnapshot],
        origin_snapshot: RegionSnapshot | None = None,
    ) -> int:
        by_index = {s.index: s for s in snapshots}
        if origin_snapshot is None:
            origin_snapshot = by_index.get(origin)
        choice = self.inner.route(sub, origin, snapshots, origin_snapshot)
        if by_index[choice].is_up:
            return choice
        up = tuple(s for s in snapshots if s.is_up)
        if not up:
            return choice  # nowhere to fail over to; wait for recovery
        diverted = self.inner.route(sub, origin, up, origin_snapshot)
        self.reroutes.append((sub.job_id, choice, diverted))
        return diverted


_FACTORIES: dict[str, Callable[[TransferModel, float], RoutingPolicy]] = {
    "round-robin": lambda transfer, power: RoundRobinRouting(),
    "queue-aware": lambda transfer, power: QueueAwareRouting(),
    "carbon-greedy": lambda transfer, power: CarbonGreedyRouting(),
    "carbon-forecast": lambda transfer, power: CarbonForecastRouting(
        transfer, power
    ),
}


def build_routing_policy(
    name: str,
    transfer: TransferModel | None = None,
    executor_power_kw: float = DEFAULT_EXECUTOR_POWER_KW,
) -> RoutingPolicy:
    """Instantiate the routing policy a federation config names."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown routing policy {name!r}; choose from {ROUTING_POLICY_NAMES}"
        ) from None
    return factory(
        transfer if transfer is not None else TransferModel(), executor_power_kw
    )
