"""The shared differential-testing harness: pinned scenarios + fingerprints.

Single home of the seven pinned-seed scenarios (one per scheduler family)
and of the SHA-256 fingerprint helpers every bit-identity suite pins
against — ``test_fingerprints`` (engine contract), ``test_obs_fingerprints``
(instrumentation neutrality), ``test_streaming_equivalence`` (streaming
summaries), and ``test_checkpoint`` (restore determinism). Suites import
from here instead of re-declaring the table, so a scenario added or
adjusted once is exercised by every contract at once. Run as a script, it
prints each scenario's fingerprint for comparison across checkouts (see
:func:`main`).
"""

from __future__ import annotations

import hashlib

from repro.carbon.api import CarbonIntensityAPI
from repro.experiments.runner import (
    ExperimentConfig,
    build_scheduler,
    carbon_trace_for,
    workload_for,
)
from repro.simulator.engine import ClusterConfig, Simulation
from repro.stream import ServiceConfig
from repro.workloads.batch import WorkloadSpec
from repro.workloads.stream import StreamSpec

#: The seven pinned-seed scenarios. Scheduler coverage spans every engine
#: path: hoarding holds (fifo), per-job caps (k8s mode), probabilistic
#: sampling (decima/pcaps), and both provisioners (cap-*, greenhadoop).
PINNED_SCENARIOS = [
    ExperimentConfig(
        scheduler="fifo", num_executors=5, seed=0,
        workload=WorkloadSpec(num_jobs=6, mean_interarrival=12.0,
                              tpch_scales=(2,)),
    ),
    ExperimentConfig(
        scheduler="k8s-default", num_executors=6, seed=1, mode="kubernetes",
        per_job_cap=3,
        workload=WorkloadSpec(num_jobs=6, mean_interarrival=10.0,
                              tpch_scales=(2,)),
    ),
    ExperimentConfig(
        scheduler="weighted-fair", num_executors=5, seed=2,
        workload=WorkloadSpec(num_jobs=7, mean_interarrival=9.0,
                              tpch_scales=(2,)),
    ),
    ExperimentConfig(
        scheduler="decima", num_executors=6, seed=3,
        workload=WorkloadSpec(num_jobs=8, mean_interarrival=8.0,
                              tpch_scales=(2,)),
    ),
    ExperimentConfig(
        scheduler="greenhadoop", num_executors=5, seed=4, gh_theta=0.6,
        workload=WorkloadSpec(num_jobs=6, mean_interarrival=15.0,
                              tpch_scales=(2,)),
    ),
    ExperimentConfig(
        scheduler="cap-decima", num_executors=6, seed=5, cap_min_quota=2,
        workload=WorkloadSpec(num_jobs=7, mean_interarrival=10.0,
                              tpch_scales=(2,)),
    ),
    ExperimentConfig(
        scheduler="pcaps", num_executors=6, seed=6, gamma=0.7,
        workload=WorkloadSpec(num_jobs=8, mean_interarrival=10.0,
                              tpch_scales=(2,)),
    ),
]

SCENARIO_IDS = [c.scheduler for c in PINNED_SCENARIOS]


def schedule_fingerprint(result) -> str:
    """SHA-256 over a result's task/hold/quota records and carbon tally.

    ``repr()`` of the floats preserves every bit, so two results share a
    fingerprint iff the engine made the identical decisions at the
    identical times — the bit-identity contract the stepper, the shared
    ready cache, and the disruption machinery (with an empty schedule) all
    pin against ``Simulation.run()``.
    """
    digest = hashlib.sha256()
    for t in result.trace.tasks:
        digest.update(
            repr(
                (
                    t.job_id, t.stage_id, t.task_index, t.executor_id,
                    t.start, t.work_start, t.end, t.preempted,
                )
            ).encode()
        )
    for h in result.trace.holds:
        digest.update(
            repr((h.job_id, h.executor_id, h.start, h.end)).encode()
        )
    for q in result.trace.quotas:
        digest.update(repr((q.time, q.quota)).encode())
    digest.update(repr(result.carbon_footprint).encode())
    return digest.hexdigest()


def build_simulation(config: ExperimentConfig) -> Simulation:
    trace = carbon_trace_for(config)
    scheduler, provisioner = build_scheduler(config, trace)
    cluster = ClusterConfig(
        num_executors=config.num_executors,
        executor_move_delay=config.executor_move_delay,
        per_job_executor_cap=(
            config.per_job_cap if config.mode == "kubernetes" else None
        ),
        mode=config.mode,
    )
    return Simulation(
        config=cluster,
        scheduler=scheduler,
        carbon_api=CarbonIntensityAPI(trace),
        provisioner=provisioner,
    )


def run_fingerprint(config: ExperimentConfig) -> str:
    return schedule_fingerprint(
        build_simulation(config).run(workload_for(config))
    )


def stream_config_for(config: ExperimentConfig) -> ServiceConfig:
    """The service-mode run equivalent to a pinned batch scenario."""
    workload = config.workload
    return ServiceConfig(
        experiment=config,
        stream=StreamSpec(
            family=workload.family,
            mean_interarrival=workload.mean_interarrival,
            tpch_scales=workload.tpch_scales,
            seed=config.seed,
            max_jobs=workload.num_jobs,
        ),
        epoch_events=64,  # several epochs even on tiny scenarios
    )


def main() -> None:
    """Print ``scenario sha256`` for each pinned scenario.

    The suites that import this module compare a run with another run of
    the same code, so none of them can show that a change to the engine
    left schedules alone. Comparing this output across two checkouts
    can::

        PYTHONPATH=<checkout>/src python tests/fingerprint_scenarios.py

    The hashes are deliberately not pinned in a test: workload synthesis
    draws from numpy's ``Generator``, whose streams numpy does not promise
    to keep across versions.
    """
    for scenario_id, config in zip(SCENARIO_IDS, PINNED_SCENARIOS):
        print(scenario_id, run_fingerprint(config))


if __name__ == "__main__":
    main()
