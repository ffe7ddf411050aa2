"""The shared differential-testing harness: pinned scenarios + fingerprints.

Single home of the nine pinned-seed scenarios (one per scheduler family)
and of the SHA-256 fingerprint helpers every bit-identity suite pins
against — ``test_fingerprints`` (engine contract), ``test_obs_fingerprints``
(instrumentation neutrality), ``test_streaming_equivalence`` (streaming
summaries), and ``test_checkpoint`` (restore determinism). Suites import
from here instead of re-declaring the table, so a scenario added or
adjusted once is exercised by every contract at once. Run as a script, it
prints each scenario's schedule fingerprint and service-mode metrics
fingerprint, or compares them with another revision's (see :func:`main`).
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.carbon.api import CarbonIntensityAPI
from repro.experiments.runner import (
    ExperimentConfig,
    build_scheduler,
    carbon_trace_for,
    workload_for,
)
from repro.simulator.engine import ClusterConfig, Simulation
from repro.stream import ServiceConfig, run_service
from repro.workloads.batch import WorkloadSpec
from repro.workloads.stream import StreamSpec

#: The nine pinned-seed scenarios. Scheduler coverage spans every engine
#: path: hoarding holds (fifo, cap-fifo), per-job caps (k8s mode),
#: probabilistic sampling (decima/pcaps), both provisioners (cap-*,
#: greenhadoop), and CAP's quota steps over the greedy baselines (cap-fifo,
#: cap-weighted-fair). Look a scenario up with :func:`pinned`, not by index.
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
        scheduler="cap-fifo", num_executors=6, seed=7, cap_min_quota=2,
        workload=WorkloadSpec(num_jobs=7, mean_interarrival=10.0,
                              tpch_scales=(2,)),
    ),
    ExperimentConfig(
        scheduler="cap-weighted-fair", num_executors=6, seed=8,
        cap_min_quota=2,
        workload=WorkloadSpec(num_jobs=7, mean_interarrival=9.0,
                              tpch_scales=(2,)),
    ),
    ExperimentConfig(
        scheduler="pcaps", num_executors=6, seed=6, gamma=0.7,
        workload=WorkloadSpec(num_jobs=8, mean_interarrival=10.0,
                              tpch_scales=(2,)),
    ),
]

SCENARIO_IDS = [c.scheduler for c in PINNED_SCENARIOS]


def pinned(scheduler: str) -> ExperimentConfig:
    """The pinned scenario whose scheduler id is ``scheduler``."""
    (config,) = [c for c in PINNED_SCENARIOS if c.scheduler == scheduler]
    return config


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


def service_fingerprint(config: ExperimentConfig) -> str:
    """``metrics_fingerprint`` of the scenario's service-mode run."""
    return run_service(stream_config_for(config)).fingerprint


def fingerprint_rows() -> list[str]:
    """``scenario schedule-sha256 service-sha256``, one line per scenario."""
    return [
        f"{scenario_id} {run_fingerprint(config)} {service_fingerprint(config)}"
        for scenario_id, config in zip(SCENARIO_IDS, PINNED_SCENARIOS)
    ]


def rows_at(rev: str) -> list[str]:
    """:func:`fingerprint_rows` computed by revision ``rev``'s ``src/``.

    Extracts ``git archive rev src`` of the repository around the working
    directory into a temporary directory and runs this script on it in a
    subprocess, so both sides run these same scenarios.
    """
    top = subprocess.run(
        ["git", "rev-parse", "--show-toplevel"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    archive = subprocess.run(
        ["git", "-C", top, "archive", "--format=tar", rev, "src"],
        capture_output=True, check=True,
    ).stdout
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"))
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve())],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
    return out.splitlines()


def compare(parent: list[str], change: list[str]) -> tuple[list[str], bool]:
    """Side-by-side ``scenario parent change`` lines, one per schedule and
    per service hash, and whether every pair is equal."""
    lines = ["scenario parent change"]
    same = len(parent) == len(change)
    for theirs, ours in zip(parent, change):
        scenario, *parent_hashes = theirs.split()
        scenario_ours, *change_hashes = ours.split()
        same = same and scenario == scenario_ours
        for kind, old, new in zip(
            ("schedule", "service"), parent_hashes, change_hashes
        ):
            lines.append(f"{scenario}/{kind} {old} {new}")
            same = same and old == new
    return lines, same


def main(argv: list[str] | None = None) -> int:
    """Print ``scenario schedule-sha256 service-sha256`` per scenario.

    The first hash covers the materialized schedule, the second the
    streaming aggregator's summary of the same trial run in service mode.
    The suites that import this module compare a run with another run of
    the same code, so none of them can show that a change to the engine
    or the streaming fold left results alone. Comparing this output
    across two checkouts can::

        PYTHONPATH=src python tests/fingerprint_scenarios.py --against REV

    runs the scenarios on revision ``REV``'s ``src/`` (via ``git
    archive``) and on the ``repro`` this process imports, prints
    ``scenario parent change`` for every schedule and service hash, and
    exits 1 if any pair differs.

    The hashes are deliberately not pinned in a test: workload synthesis
    draws from numpy's ``Generator``, whose streams numpy does not promise
    to keep across versions.
    """
    parser = argparse.ArgumentParser(description=main.__doc__.splitlines()[0])
    parser.add_argument(
        "--against", metavar="REV",
        help="compare with the fingerprints of git revision REV",
    )
    args = parser.parse_args(argv)
    if args.against is None:
        print("\n".join(fingerprint_rows()))
        return 0
    lines, same = compare(rows_at(args.against), fingerprint_rows())
    print("\n".join(lines))
    if not same:
        print(f"fingerprints differ from {args.against}", file=sys.stderr)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
