"""repro.campaign — parallel experiment-campaign orchestration.

The paper's evaluation is hundreds of (scheduler × grid × workload × seed ×
trace-slice) trials: Tables 2/3 average repeated trials at random trace start
times and Figs. 7–19 are parameter sweeps. This package turns those sweeps —
and the federation and service-mode sweeps built on the same runner — into
declarative, resumable, cached campaigns:

- :mod:`repro.campaign.kinds` — one :class:`TrialKind` per config type
  (:class:`~repro.experiments.runner.ExperimentConfig`,
  :class:`~repro.geo.config.FederationConfig`,
  :class:`~repro.stream.service.ServiceConfig`): how a trial runs, what its
  record keeps, how it is keyed, labelled and reported;
- :mod:`repro.campaign.spec` — :class:`CampaignSpec` expands cartesian grids
  over config fields into concrete trial lists, with named presets of every
  kind, and the annotation-driven config codec;
- :mod:`repro.campaign.cache` — content-addressed trial keys (config hash ×
  code version) so re-runs and overlapping sweeps skip completed trials;
- :mod:`repro.campaign.store` — an append-only JSONL result store holding
  per-trial metric summaries;
- :mod:`repro.campaign.executor` — a supervised process-pool runner with
  failure isolation, progress callbacks, and resume-from-store, plus
  :func:`run_sweep`, the one way a normalized paper sweep runs (inline,
  against a throwaway store), and :func:`run_table` for Tables 2/3;
- :mod:`repro.campaign.supervise` — the resilience policy (per-trial
  timeouts, seeded-backoff retries, quarantine, mid-flight checkpoints)
  the executor enforces;
- :mod:`repro.campaign.reports` — replicate aggregation (mean/p50/p95),
  baseline-normalized tables and sweep points from stored records alone.

Quickstart::

    from repro.campaign import CampaignRunner, ResultStore, campaign_presets

    spec = campaign_presets()["demo"]
    runner = CampaignRunner(ResultStore("campaign-results.jsonl"))
    run = runner.run(spec)            # fans trials across worker processes
    rerun = runner.run(spec)          # 100% cache hits, zero simulations
    assert rerun.stats.hit_rate == 1.0
"""

from repro._lazy import lazy_exports

_SUBMODULE_OF = {
    **dict.fromkeys(("CacheStats", "trial_key"), "cache"),
    **dict.fromkeys(
        ("CampaignRun", "CampaignRunner", "run_sweep", "run_table"), "executor"
    ),
    **dict.fromkeys(("KINDS", "TrialKind", "kind_of"), "kinds"),
    **dict.fromkeys(
        ("SweepPoint", "campaign_report", "format_campaign_report", "sweep_points"),
        "reports",
    ),
    **dict.fromkeys(("CampaignSpec", "campaign_presets", "table_spec"), "spec"),
    **dict.fromkeys(("ResultStore", "StoreCheck", "TrialRecord"), "store"),
    **dict.fromkeys(
        ("CampaignInterrupted", "CheckpointPolicy", "SupervisorConfig"),
        "supervise",
    ),
}
__getattr__ = lazy_exports(__name__, _SUBMODULE_OF)
__all__ = sorted(_SUBMODULE_OF)
