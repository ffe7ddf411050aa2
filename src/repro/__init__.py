"""repro — reproduction of "Carbon- and Precedence-Aware Scheduling for
Data Processing Clusters" (Lechowicz et al., SIGCOMM 2025).

The package rebuilds the paper's full evaluation stack in pure Python:

- :mod:`repro.carbon` — carbon-intensity traces, six Table 1-calibrated
  grid models, forecasts, and a replaying carbon API;
- :mod:`repro.dag` — the stage-DAG job model and structural metrics;
- :mod:`repro.workloads` — TPC-H-like and Alibaba-like workload generators
  with Poisson arrivals;
- :mod:`repro.simulator` — the event-driven Spark cluster simulator
  (standalone and Kubernetes modes, executor hoarding, quotas, ex-post
  carbon accounting);
- :mod:`repro.schedulers` — the carbon-agnostic baselines (FIFO, the
  Kubernetes default, Weighted Fair, a Decima surrogate, GreenHadoop) and
  exact T-OPT/C-OPT searches;
- :mod:`repro.core` — the paper's contribution: PCAPS, CAP, the threshold
  functions, and the Theorems 4.3-4.6 analysis;
- :mod:`repro.experiments` — the declarative runner and per-table /
  per-figure producers;
- :mod:`repro.campaign` — parallel experiment campaigns: declarative sweep
  specs, a process-pool executor, and content-addressed result caching;
- :mod:`repro.geo` — geo-distributed federation: one cluster per grid
  region in one timeline, pluggable job routing, and priced input
  transfers;
- :mod:`repro.disrupt` — seeded region outages, capacity curtailments and
  carbon-signal blackouts, injected into the engine, with a resilience
  ledger;
- :mod:`repro.stream` — service mode: open-ended arrival streams in O(1)
  memory, with epochs, checkpoints and windowed metrics;
- :mod:`repro.obs` — off-by-default metrics, span tracing, and the static
  HTML dashboard;
- :mod:`repro.cli` — ``python -m repro`` / ``repro`` command-line access.

Package exports are lazy (:mod:`repro._lazy`): ``from repro.core import
PCAPSScheduler`` imports :mod:`repro.core.pcaps` and what it needs, not
the analysis module beside it.

Quickstart::

    from repro.carbon.api import CarbonIntensityAPI
    from repro.carbon.grids import synthesize_trace
    from repro.core import PCAPSScheduler
    from repro.schedulers import DecimaScheduler
    from repro.simulator import ClusterConfig, Simulation
    from repro.workloads import WorkloadSpec, build_workload

    trace = synthesize_trace("DE", seed=0).slice(0, 3000)
    jobs = build_workload(WorkloadSpec(family="tpch", num_jobs=25), seed=7)
    sim = Simulation(
        ClusterConfig(num_executors=25),
        PCAPSScheduler(DecimaScheduler(seed=0), gamma=0.5),
        CarbonIntensityAPI(trace),
    )
    result = sim.run(jobs)
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

_SUBMODULE_OF = {
    "CAPProvisioner": "core.cap",
    "PCAPSScheduler": "core.pcaps",
    **dict.fromkeys(("ClusterConfig", "Simulation"), "simulator.engine"),
}
__getattr__ = lazy_exports(__name__, _SUBMODULE_OF)
__all__ = sorted([*_SUBMODULE_OF, "__version__"])
