"""Experiment harness: one entry point per paper table and figure.

:mod:`~repro.experiments.runner` turns a declarative
:class:`~repro.experiments.runner.ExperimentConfig` into an
:class:`~repro.simulator.metrics.ExperimentResult`;
:mod:`~repro.experiments.tables` and :mod:`~repro.experiments.figures`
assemble the normalized rows/series each paper artifact reports;
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
