"""Experiment harness: configs, runs and the paper artifacts that are not
normalized sweeps.

:mod:`~repro.experiments.runner` turns a declarative
:class:`~repro.experiments.runner.ExperimentConfig` into an
:class:`~repro.simulator.metrics.ExperimentResult`, and runs a matchup of
schedulers on one workload and trace; :mod:`~repro.experiments.tables`
holds the paper's published values, Table 1 and the table renderer;
:mod:`~repro.experiments.figures` produces the figures that read traces,
timelines, per-job carbon or latency (Figs. 5, 6, 9, 15, 20). Tables 2/3
and the other figures are normalized sweeps, which run as campaign specs
(:func:`repro.campaign.executor.run_sweep`), a layer built on this one;
:mod:`~repro.experiments.motivation` holds the Fig. 1 motivating example;
:mod:`~repro.experiments.perf` times engine throughput across a
scheduler × job-count grid (``repro perf``, ``BENCH_engine.json``); and
:mod:`~repro.experiments.federation` runs the geo experiments — routing
matchups over identical workloads and single-region counterfactuals.
"""

from repro._lazy import lazy_exports

_SUBMODULE_OF = {
    **dict.fromkeys(
        (
            "run_routing_matchup",
            "scaled_single_region",
            "single_region_carbon_g",
            "single_region_results",
        ),
        "federation",
    ),
    **dict.fromkeys(
        (
            "SCHEDULER_NAMES",
            "ExperimentConfig",
            "build_scheduler",
            "run_experiment",
            "run_matchup",
        ),
        "runner",
    ),
    **dict.fromkeys(
        ("fig1_comparison", "motivating_dag", "motivating_trace"), "motivation"
    ),
    **dict.fromkeys(
        (
            "PerfMeasurement",
            "PerfScenario",
            "build_scenarios",
            "run_scenario",
            "run_suite",
            "smoke_scenarios",
            "write_report",
        ),
        "perf",
    ),
}
__getattr__ = lazy_exports(__name__, _SUBMODULE_OF)
__all__ = sorted(_SUBMODULE_OF)
