"""Event-driven Spark cluster simulator.

This package reimplements, in Python, the role played by the Decima
simulator of Mao et al. [SIGCOMM'19] in the paper's evaluation (Section 5.2):
an event-driven model of a Spark cluster with

- ``K`` identical executors with a configurable *move delay* when an
  executor switches jobs (the simulator's "delays in executor movement"),
- stage-level scheduling with per-stage parallelism limits,
- two cluster modes: ``standalone`` (Spark standalone master, FIFO-style
  over-assignment possible) and ``kubernetes`` (per-job executor cap,
  mirroring the prototype's 25-executor limit — Appendix A.1.2),
- scheduling events on job arrivals, task completions, and hourly carbon
  intensity changes (Algorithm 1, line 2),
- cluster-wide provisioning quotas (for CAP / GreenHadoop), enforced without
  preemption,
- ex-post-facto carbon accounting from the recorded schedule, exactly as the
  paper's simulator extension does ("each job's carbon footprint is measured
  ex post facto to avoid impacting simulator fidelity").
"""

from repro._lazy import lazy_exports

_SUBMODULE_OF = {
    **dict.fromkeys(("ClusterConfig", "Simulation", "simulate"), "engine"),
    **dict.fromkeys(
        ("Provisioner", "ProbabilisticPolicy", "StageChoice", "StageScheduler"),
        "interfaces",
    ),
    **dict.fromkeys(("ExperimentResult", "compare_to_baseline"), "metrics"),
    **dict.fromkeys(
        ("ClusterView", "JobRuntime", "ReadyStage", "StageRuntime"), "state"
    ),
    **dict.fromkeys(
        ("ScheduleTrace", "TaskRecord", "busy_executor_series"), "trace"
    ),
}
__getattr__ = lazy_exports(__name__, _SUBMODULE_OF)
__all__ = sorted(_SUBMODULE_OF)
