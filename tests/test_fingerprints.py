"""SHA-256 fingerprint tests: the engine's bit-identity contract.

Nine pinned-seed scenarios — one per scheduler family (plain, holding,
probabilistic, provisioned, combined) — are each fingerprinted over their
task/hold/quota records and ex-post carbon tally. The suite pins three
properties:

- determinism: running the identical scenario twice produces the identical
  fingerprint;
- stepper equivalence: submitting everything up front and draining through
  ``SimulationStepper`` reproduces ``Simulation.run()`` exactly;
- disruption neutrality: a stepper with an *empty*
  :class:`~repro.disrupt.schedule.DisruptionSchedule` installed (and the
  no-op capacity verbs exercised) still replays bit-identically — the
  disruption machinery is invisible until a schedule actually fires.

Run as a script, ``fingerprint_scenarios.py`` prints the same fingerprints,
plus each scenario's service-mode metrics fingerprint, for comparing two
checkouts, and ``--against REV`` makes that comparison with a git
revision; tests check both.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.disrupt import (
    DisruptionEvent,
    DisruptionSchedule,
    install_disruptions,
)
from repro.experiments.runner import ExperimentConfig, workload_for
from repro.workloads.batch import WorkloadSpec

from fingerprint_scenarios import (  # noqa: F401  (re-exported for suites)
    PINNED_SCENARIOS,
    SCENARIO_IDS,
    build_simulation,
    compare,
    pinned,
    run_fingerprint,
    schedule_fingerprint,
    service_fingerprint,
)


class TestPinnedFingerprints:
    def test_scenarios_cover_seven_schedulers(self):
        assert len(PINNED_SCENARIOS) == 9
        assert len(set(SCENARIO_IDS)) == 9

    def test_script_prints_every_scenario_fingerprint(self):
        """``python tests/fingerprint_scenarios.py`` — the cross-checkout
        comparison — prints ``scenario schedule-sha256 service-sha256``
        lines equal to the fingerprints computed in process."""
        script = Path(__file__).with_name("fingerprint_scenarios.py")
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        out = subprocess.run(
            [sys.executable, str(script)],
            env=env, capture_output=True, text=True, check=True, timeout=300,
        ).stdout
        assert out.splitlines() == [
            f"{scenario} {run_fingerprint(config)} "
            f"{service_fingerprint(config)}"
            for scenario, config in zip(SCENARIO_IDS, PINNED_SCENARIOS)
        ]

    def test_against_a_revision_with_the_same_src(self, tmp_path):
        """``--against REV`` runs the scenarios on REV's ``src/`` and on
        this checkout's, prints both hashes of each, and exits 0 when
        every pair agrees. REV here is a commit holding a copy of the
        ``src/`` under test."""
        src = Path(repro.__file__).resolve().parents[1]
        shutil.copytree(
            src, tmp_path / "src",
            ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"),
        )
        git = ["git", "-c", "user.name=t", "-c", "user.email=t@example.com"]
        for args in (["init", "-q"], ["add", "src"], ["commit", "-qm", "src"]):
            subprocess.run(git + args, cwd=tmp_path, check=True)
        script = Path(__file__).with_name("fingerprint_scenarios.py")
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, str(script), "--against", "HEAD"],
            cwd=tmp_path, env=env, capture_output=True, text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert lines[0] == "scenario parent change"
        assert len(lines) == 1 + 2 * len(PINNED_SCENARIOS)
        for line in lines[1:]:
            _, parent, change = line.split()
            assert parent == change

    def test_compare_flags_any_difference(self):
        parent = ["fifo a b", "pcaps c d"]
        lines, same = compare(parent, list(parent))
        assert same
        assert lines == [
            "scenario parent change",
            "fifo/schedule a a",
            "fifo/service b b",
            "pcaps/schedule c c",
            "pcaps/service d d",
        ]
        assert not compare(parent, ["fifo a b", "pcaps c e"])[1]
        assert not compare(parent, ["fifo a b", "decima c d"])[1]
        assert not compare(parent, ["fifo a b"])[1]

    @pytest.mark.parametrize("config", PINNED_SCENARIOS, ids=SCENARIO_IDS)
    def test_rerun_is_bit_identical(self, config):
        assert run_fingerprint(config) == run_fingerprint(config)

    @pytest.mark.parametrize("config", PINNED_SCENARIOS, ids=SCENARIO_IDS)
    def test_empty_disruption_schedule_is_bit_identical(self, config):
        """The disruption machinery is invisible without a schedule."""
        via_run = run_fingerprint(config)

        stepper = build_simulation(config).stepper()
        for sub in workload_for(config):
            stepper.submit(sub)
        installed = install_disruptions(stepper, DisruptionSchedule.empty())
        assert installed == 0
        # No-op verbs must not perturb the replay either.
        stepper.resume(0.0)
        stepper.set_capacity(0.0, config.num_executors)
        stepper.run_to_completion()
        assert stepper.preempted_tasks == 0
        assert schedule_fingerprint(stepper.result()) == via_run


class TestDisruptedDeterminism:
    @pytest.mark.parametrize("scheduler", ["fifo", "pcaps", "cap-decima"])
    def test_disrupted_rerun_is_bit_identical(self, scheduler):
        """A pinned schedule yields the identical disrupted replay."""
        config = ExperimentConfig(
            scheduler=scheduler, num_executors=6, seed=11,
            workload=WorkloadSpec(num_jobs=8, mean_interarrival=8.0,
                                  tpch_scales=(2,)),
        )
        schedule = DisruptionSchedule.generate(
            seed=5, horizon_s=400.0, num_outages=1, num_curtailments=1,
            num_blackouts=1,
        )

        def run_once() -> str:
            stepper = build_simulation(config).stepper()
            for sub in workload_for(config):
                stepper.submit(sub)
            install_disruptions(stepper, schedule)
            stepper.run_to_completion()
            return schedule_fingerprint(stepper.result())

        assert run_once() == run_once()

    def test_disruption_changes_the_fingerprint(self):
        """Sanity: a schedule that bites actually alters the replay."""
        config = pinned("fifo")
        schedule = DisruptionSchedule(
            events=(  # outage across the busy window
                DisruptionEvent(kind="outage", start=30.0, end=300.0),
            )
        )
        stepper = build_simulation(config).stepper()
        for sub in workload_for(config):
            stepper.submit(sub)
        install_disruptions(stepper, schedule)
        stepper.run_to_completion()
        assert schedule_fingerprint(stepper.result()) != run_fingerprint(
            config
        )
        assert stepper.preempted_tasks > 0
