"""Trial kinds: how the campaign engine treats each config type.

A campaign sweeps one config type — a single-cluster
:class:`~repro.experiments.runner.ExperimentConfig`, a multi-region
:class:`~repro.geo.config.FederationConfig`, or a service-mode
:class:`~repro.stream.service.ServiceConfig`. Everything that differs
between them lives in one :class:`TrialKind` record per type; the codec,
spec, trial key, runner, report and CLI read this table instead of keeping
a copy of themselves per type.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import TYPE_CHECKING, Any, Callable

from repro.campaign.store import result_metrics
from repro.experiments.runner import ExperimentConfig
from repro.geo.config import FederationConfig
from repro.stream.service import ServiceConfig

if TYPE_CHECKING:
    from repro.geo.result import FederationResult
    from repro.stream.service import StreamReport


@dataclass(frozen=True)
class TrialKind:
    """One config type's row in the campaign engine's table.

    Field paths are dotted (``experiment.scheduler``), as axis names are.

    Attributes
    ----------
    name:
        Stable identifier, shown by ``repro campaign list`` and carried in
        pool payloads.
    config_type:
        The config dataclass a spec's ``base`` is an instance of.
    run:
        ``config -> result``: executes one trial.
    metrics:
        ``result -> dict``: the summary a store record keeps.
    label:
        ``config -> str``: the trial's progress line.
    key_tag:
        The ``"kind"`` entry of the trial-key payload; ``None`` leaves it
        out (scheduler keys predate the other kinds).
    key_excluded:
        Top-level config fields dropped from the trial key because they
        never change metrics.
    policy_fields:
        Fields that choose *which policy* runs. Trials that differ only
        here share a replicate, so reports pair them. A spec's
        ``baseline`` names a value of the first one.
    replicate_fields:
        Fields that vary replicates of one cell; reports average over
        them.
    carbon_metric:
        The metric reports read carbon from.
    """

    name: str
    config_type: type
    run: Callable[[Any], Any]
    metrics: Callable[[Any], dict[str, Any]]
    label: Callable[[Any], str]
    key_tag: str | None
    key_excluded: tuple[str, ...]
    policy_fields: tuple[str, ...]
    replicate_fields: tuple[str, ...]
    carbon_metric: str

    def policy_of(self, config) -> Any:
        """The value a spec's ``baseline`` is compared with."""
        return reduce(getattr, self.policy_fields[0].split("."), config)


def _run_experiment(config: ExperimentConfig):
    # Resolved at call time: perf harnesses swap executor.execute_trial.
    from repro.campaign import executor

    return executor.execute_trial(config)


def run_federation(config: FederationConfig) -> FederationResult:
    """:func:`repro.geo.federation.run_federation`, imported on first call,
    so a campaign of another kind never loads the federation engine."""
    from repro.geo.federation import run_federation

    return run_federation(config)


def _run_federation(config: FederationConfig) -> FederationResult:
    # Resolved at call time too, so ``run_federation`` can be patched here.
    return run_federation(config)


def _run_service(config: ServiceConfig) -> StreamReport:
    from repro.stream.service import run_service

    return run_service(config)


def _experiment_label(config: ExperimentConfig) -> str:
    parts = [config.scheduler, f"grid={config.grid}", f"seed={config.seed}"]
    if config.trace_start_step:
        parts.append(f"start={config.trace_start_step}")
    if config.scheduler == "pcaps":
        parts.append(f"gamma={config.gamma}")
    if config.cap_min_quota is not None:
        parts.append(f"B={config.cap_min_quota}")
    return " ".join(parts)


def _federation_metrics(result: FederationResult) -> dict[str, Any]:
    return {
        "total_carbon_g": result.total_carbon_g,
        "compute_carbon_g": result.compute_carbon_g,
        "transfer_carbon_g": result.transfer_carbon_g,
        "ect": result.ect,
        "avg_jct": result.avg_jct,
        "avg_stretch": result.avg_stretch,
        "num_jobs": result.num_jobs,
        "moved_jobs": result.moved_jobs(),
        "jobs_per_region": result.jobs_per_region(),
        "rerouted_jobs": len(result.reroutes),
        "migrated_jobs": result.migrated_jobs(),
        "failover_transfer_carbon_g": result.failover_transfer_carbon_g,
    }


def _federation_label(config: FederationConfig) -> str:
    label = f"{config.routing} regions={len(config.regions)} seed={config.seed}"
    if config.disruptions is not None:
        label += (
            f" disrupted×{len(config.disruptions)}"
            f" failover={'on' if config.failover else 'off'}"
        )
    return label


def _stream_metrics(report: StreamReport) -> dict[str, Any]:
    return {
        **report.summary,
        "fingerprint": report.fingerprint,
        "jobs_arrived": report.jobs_arrived,
        "jct_mean": report.jct_moments["mean"],
        "jct_std": report.jct_moments["std"],
        "stretch_mean": report.stretch_moments["mean"],
        "stretch_std": report.stretch_moments["std"],
        "windows": len(report.windows),
    }


def _stream_label(config: ServiceConfig) -> str:
    stream = config.stream
    if stream.max_jobs is not None:
        bound = f"jobs={stream.max_jobs}"
    elif stream.horizon_s is not None:
        bound = f"horizon={stream.horizon_s}s"
    else:
        bound = "unbounded"
    return (
        f"{config.experiment.scheduler} stream {stream.family} {bound} "
        f"ia={stream.mean_interarrival:g}s seed={stream.seed}"
    )


_EXPERIMENT_POLICY = ("scheduler", "gamma", "cap_min_quota", "gh_theta")

SCHEDULER = TrialKind(
    name="scheduler",
    config_type=ExperimentConfig,
    run=_run_experiment,
    metrics=result_metrics,
    label=_experiment_label,
    key_tag=None,
    key_excluded=(),
    policy_fields=_EXPERIMENT_POLICY,
    replicate_fields=("seed", "trace_start_step"),
    carbon_metric="carbon_footprint",
)

FEDERATION = TrialKind(
    name="federation",
    config_type=FederationConfig,
    run=_run_federation,
    metrics=_federation_metrics,
    label=_federation_label,
    key_tag="federation",
    key_excluded=(),
    policy_fields=("routing",),
    replicate_fields=("seed",),
    carbon_metric="total_carbon_g",
)

STREAM = TrialKind(
    name="stream",
    config_type=ServiceConfig,
    run=_run_service,
    metrics=_stream_metrics,
    label=_stream_label,
    key_tag="stream",
    # Service cadence: proven metrics-neutral (tests/test_stream.py), so a
    # different epoch size or checkpoint cadence still resumes a store.
    key_excluded=("epoch_events", "checkpoint_every_epochs", "checkpoint_dir"),
    policy_fields=tuple(f"experiment.{name}" for name in _EXPERIMENT_POLICY),
    replicate_fields=("experiment.seed", "experiment.trace_start_step", "stream.seed"),
    carbon_metric="carbon_footprint",
)

#: Every kind by name (pool payloads carry the name, not the record).
KINDS: dict[str, TrialKind] = {k.name: k for k in (SCHEDULER, FEDERATION, STREAM)}

_BY_TYPE = {k.config_type: k for k in KINDS.values()}


def kind_of(config) -> TrialKind:
    """The kind a config instance belongs to."""
    try:
        return _BY_TYPE[type(config)]
    except KeyError:
        raise TypeError(
            f"no campaign trial kind for {type(config).__name__}"
        ) from None
