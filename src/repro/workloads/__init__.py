"""Workload generators.

The paper evaluates on TPC-H benchmark queries (synthetic data at 2/10/50 GB)
and production DAG traces from an Alibaba cluster (Section 6.1). Neither the
authors' Spark stage timings nor the raw Alibaba trace ship with this repo,
so both are modelled generatively, calibrated to every statistic the paper
reports:

- TPC-H: 22 scan/join/aggregate query shapes with average single-executor
  durations of 180 s (2 GB), 386 s (10 GB) and 1,261 s (50 GB).
- Alibaba: power-law job sizes, 66 stages on average, 7,989 s average serial
  duration, scaled by 1/60 for the experiment time scale.

Arrivals follow a Poisson process with a 30 s mean interarrival by default.
"""

from repro._lazy import lazy_exports

_SUBMODULE_OF = {
    **dict.fromkeys(("AlibabaWorkloadModel", "alibaba_job"), "alibaba"),
    **dict.fromkeys(
        ("JobSubmission", "poisson_arrival_times", "submissions_from_dags"),
        "arrivals",
    ),
    **dict.fromkeys(("WorkloadSpec", "build_workload"), "batch"),
    **dict.fromkeys(
        ("TPCH_QUERIES", "TPCH_SCALE_DURATIONS", "tpch_job", "tpch_query_catalog"),
        "tpch",
    ),
}
__getattr__ = lazy_exports(__name__, _SUBMODULE_OF)
__all__ = sorted(_SUBMODULE_OF)
