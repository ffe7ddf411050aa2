"""Carbon-agnostic baseline schedulers and provisioners.

These are the baselines of Section 6.1:

- :class:`FIFOScheduler` — Spark standalone's default: first job in, first
  served, stages in DAG order, executors over-assigned up to the stage's
  task count (Appendix A.1.2).
- :class:`KubernetesDefaultScheduler` — the prototype's default behaviour:
  FIFO stage order within a job while the Kubernetes scheduler mediates
  executors *across* jobs (pods spread over jobs; per-job 25-executor cap is
  enforced by the cluster config).
- :class:`WeightedFairScheduler` — executors proportional to each job's
  remaining workload ("a heuristic tuned for the simulator's test jobs").
- :class:`DecimaScheduler` — a probabilistic surrogate for the trained
  Decima policy: PCAPS consumes only the distribution over ready stages,
  so the surrogate reproduces the trained policy's reported behaviour
  instead of training a GNN (see :mod:`repro.schedulers.decima`).
- :class:`GreenHadoopProvisioner` — the paper's GreenHadoop adaptation
  (Appendix A.1.1): a provisioning policy paired with FIFO dispatch.
- :mod:`~repro.schedulers.optimal` — exact T-OPT / C-OPT searches for small
  DAGs (the Fig. 1 motivating comparison).
"""

from repro._lazy import lazy_exports

_SUBMODULE_OF = {
    "DecimaScheduler": "decima",
    **dict.fromkeys(("FIFOScheduler", "KubernetesDefaultScheduler"), "fifo"),
    "GreenHadoopProvisioner": "greenhadoop",
    **dict.fromkeys(
        ("OptimalSchedule", "optimal_carbon_schedule", "optimal_time_schedule"),
        "optimal",
    ),
    "WeightedFairScheduler": "weighted_fair",
}
__getattr__ = lazy_exports(__name__, _SUBMODULE_OF)
__all__ = sorted(_SUBMODULE_OF)
