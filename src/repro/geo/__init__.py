"""Geo-distributed federation: multi-cluster, multi-grid carbon-aware
scheduling.

The paper schedules within one cluster in one grid region; this subsystem
adds the spatial dimension. A :class:`Federation` composes N independent
cluster simulations — each with its own Table-1 grid trace and
intra-cluster scheduler (FIFO / Decima / PCAPS / CAP) — in one virtual
timeline, and routes every arriving job through a pluggable
:class:`RoutingPolicy`. A :class:`TransferModel` prices moving job inputs
between regions, so spatial carbon shifting competes against network
footprint instead of being free.

Under disruptions (:mod:`repro.disrupt`), :class:`FailoverRouting` wraps
any policy to steer arriving jobs away from down regions, and the
coordinator migrates queued jobs out at each outage. Mind the honest
finding from the pinned benchmark: failover rescues deadlines (2/48 →
28/48 on-time) but *raises* total carbon ~2.3× vs riding the outage out
— diverted jobs run in dirtier grids and migrated inputs ship twice.
See :func:`run_federation` and the :mod:`repro.disrupt` package notes
before treating failover as a default-on win.
"""

from repro._lazy import lazy_exports

_SUBMODULE_OF = {
    **dict.fromkeys(
        (
            "DEFAULT_EXECUTOR_POWER_KW",
            "ROUTING_POLICY_NAMES",
            "FederationConfig",
            "RegionConfig",
            "TransferModel",
        ),
        "config",
    ),
    **dict.fromkeys(("Federation", "run_federation"), "federation"),
    **dict.fromkeys(
        (
            "FederationComparison",
            "FederationResult",
            "MigrationDecision",
            "RegionResult",
            "RoutingDecision",
            "compare_federations",
        ),
        "result",
    ),
    **dict.fromkeys(
        (
            "CarbonForecastRouting",
            "CarbonGreedyRouting",
            "FailoverRouting",
            "QueueAwareRouting",
            "RegionSnapshot",
            "RoundRobinRouting",
            "RoutingPolicy",
            "build_routing_policy",
        ),
        "routing",
    ),
}
__getattr__ = lazy_exports(__name__, _SUBMODULE_OF)
__all__ = sorted(_SUBMODULE_OF)
