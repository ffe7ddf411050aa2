"""Checkpoint/restore determinism: the resilience layer's core contract.

``SimulationStepper.checkpoint()`` at an arbitrary cut point, restored and
drained, must be byte-identical to the uninterrupted run — on all nine
pinned fingerprint scenarios, under disruptions, and with obs collection
on. That contract is what lets campaign workers resume a retried trial
mid-flight without changing a single result bit.
"""

import pathlib

import pytest

from conftest import schedule_fingerprint
from test_fingerprints import (
    PINNED_SCENARIOS,
    SCENARIO_IDS,
    build_simulation,
    pinned,
    run_fingerprint,
)

from repro.campaign.executor import execute_trial, execute_trial_checkpointed
from repro.campaign.supervise import CheckpointPolicy
from repro.disrupt import DisruptionSchedule, install_disruptions
from repro.experiments.runner import ExperimentConfig, workload_for
from repro.ioutil import atomic_write_bytes
from repro.obs.observer import collecting
from repro.simulator.engine import SimulationStepper
from repro.workloads.batch import WorkloadSpec


def stepper_with_workload(config) -> SimulationStepper:
    stepper = build_simulation(config).stepper()
    for sub in workload_for(config):
        stepper.submit(sub)
    return stepper


def step_n(stepper: SimulationStepper, n: int) -> None:
    for _ in range(n):
        if not stepper.events:
            break
        stepper.step()


def drain(stepper: SimulationStepper) -> str:
    while stepper.events:
        stepper.step()
    return schedule_fingerprint(stepper.result())


class TestRestoreIsFingerprintNeutral:
    @pytest.mark.parametrize("config", PINNED_SCENARIOS, ids=SCENARIO_IDS)
    def test_restore_then_drain_matches_uninterrupted(self, config):
        """Cut mid-run, restore, drain: byte-identical to never cutting —
        and taking the checkpoint must not perturb the original either."""
        reference = run_fingerprint(config)
        original = stepper_with_workload(config)
        step_n(original, 13)
        blob = original.checkpoint()
        restored = SimulationStepper.restore(blob)
        assert drain(restored) == reference
        # The checkpointed original keeps running unperturbed too.
        assert drain(original) == reference

    @pytest.mark.parametrize("cut", [1, 7, 23, 61])
    def test_arbitrary_cut_points(self, cut):
        """The cut point is immaterial — early, late, or mid-burst."""
        config = pinned("pcaps")  # RNG + carbon + frontier state
        reference = run_fingerprint(config)
        stepper = stepper_with_workload(config)
        step_n(stepper, cut)
        assert drain(SimulationStepper.restore(stepper.checkpoint())) == reference

    def test_chained_checkpoints(self):
        """checkpoint → restore → checkpoint → restore keeps the contract."""
        config = pinned("decima")  # probabilistic sampling
        reference = run_fingerprint(config)
        stepper = stepper_with_workload(config)
        step_n(stepper, 5)
        second = SimulationStepper.restore(stepper.checkpoint())
        step_n(second, 9)
        third = SimulationStepper.restore(second.checkpoint())
        assert drain(third) == reference

    def test_restore_under_obs_collection(self):
        """Restore re-attaches to the ambient observer: fingerprints stay
        identical and probes keep counting after restore."""
        config = pinned("pcaps")
        reference = run_fingerprint(config)
        stepper = stepper_with_workload(config)
        step_n(stepper, 11)
        blob = stepper.checkpoint()
        with collecting("restore-test") as observer:
            restored = SimulationStepper.restore(blob)
            assert restored._obs is observer
            assert drain(restored) == reference
            assert observer.registry.value("engine.events.task_done") > 0

    def test_restore_with_obs_off_detaches(self):
        config = pinned("fifo")
        stepper = stepper_with_workload(config)
        with collecting("checkpoint-side"):
            step_n(stepper, 3)
        blob = stepper.checkpoint()
        restored = SimulationStepper.restore(blob)
        assert restored._obs is None  # observer refs never ride a checkpoint

    def test_disrupted_run_checkpoints_cleanly(self):
        """Pending disruption events (outage/curtailment/blackout) live in
        the heap and survive the cut like any other state."""
        config = ExperimentConfig(
            scheduler="pcaps", num_executors=6, seed=11,
            workload=WorkloadSpec(num_jobs=8, mean_interarrival=8.0,
                                  tpch_scales=(2,)),
        )
        schedule = DisruptionSchedule.generate(
            seed=5, horizon_s=400.0, num_outages=1, num_curtailments=1,
            num_blackouts=1,
        )

        def disrupted_stepper() -> SimulationStepper:
            stepper = stepper_with_workload(config)
            install_disruptions(stepper, schedule)
            return stepper

        reference = drain(disrupted_stepper())
        stepper = disrupted_stepper()
        step_n(stepper, 17)
        assert drain(SimulationStepper.restore(stepper.checkpoint())) == reference

    def test_checkpoint_carries_an_empty_frontier_table(self):
        config = pinned("pcaps")
        stepper = stepper_with_workload(config)
        step_n(stepper, 13)
        assert stepper._frontier_table._full is not None
        restored = SimulationStepper.restore(stepper.checkpoint())
        table = restored._frontier_table
        assert table._full is None and not table._blocks

    def test_restore_rejects_foreign_pickles(self):
        import pickle

        with pytest.raises(TypeError, match="SimulationStepper"):
            SimulationStepper.restore(pickle.dumps({"not": "a stepper"}))


class TestWorkerCheckpointing:
    CONFIG = ExperimentConfig(
        scheduler="pcaps", num_executors=5, seed=3,
        workload=WorkloadSpec(num_jobs=5, mean_interarrival=10.0,
                              tpch_scales=(2,)),
    )

    def test_checkpointed_execution_matches_plain(self, tmp_path):
        policy = CheckpointPolicy(directory=str(tmp_path), every_events=25)
        via_ckpt = execute_trial_checkpointed("k1", self.CONFIG, policy)
        plain = execute_trial(self.CONFIG)
        assert schedule_fingerprint(via_ckpt) == schedule_fingerprint(plain)
        # A finished trial leaves no checkpoint behind.
        assert not policy.path_for("k1").exists()

    def test_resumes_from_existing_checkpoint(self, tmp_path, monkeypatch):
        """A retried attempt restores the previous attempt's checkpoint and
        resumes mid-flight — the fresh-build path is never taken."""
        import repro.campaign.executor as executor_module

        policy = CheckpointPolicy(directory=str(tmp_path), every_events=10)
        stepper = stepper_with_workload(self.CONFIG)
        step_n(stepper, 20)
        atomic_write_bytes(policy.path_for("k2"), stepper.checkpoint())

        def refuse(*args, **kwargs):
            raise AssertionError("resumed trial must not rebuild from scratch")

        monkeypatch.setattr(executor_module, "simulation_for", refuse)
        resumed = execute_trial_checkpointed("k2", self.CONFIG, policy)
        assert schedule_fingerprint(resumed) == schedule_fingerprint(
            execute_trial(self.CONFIG)
        )

    def test_corrupt_checkpoint_falls_back_to_fresh_start(self, tmp_path):
        policy = CheckpointPolicy(directory=str(tmp_path), every_events=50)
        path = policy.path_for("k3")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"\x80\x05 definitely not a stepper")
        result = execute_trial_checkpointed("k3", self.CONFIG, policy)
        assert schedule_fingerprint(result) == schedule_fingerprint(
            execute_trial(self.CONFIG)
        )

    def test_checkpoints_written_periodically(self, tmp_path):
        """With a tiny interval the checkpoint file appears during the run
        (observed via mtime-free existence check against a long trial)."""
        policy = CheckpointPolicy(directory=str(tmp_path), every_events=5)
        stepper = stepper_with_workload(self.CONFIG)
        written = []
        # Drive the same loop the worker uses, recording file appearances.
        last_saved = stepper.events_processed
        while stepper.events:
            stepper.step()
            if stepper.events_processed - last_saved >= policy.every_events:
                atomic_write_bytes(policy.path_for("k4"), stepper.checkpoint())
                written.append(stepper.events_processed)
                last_saved = stepper.events_processed
        assert len(written) > 2
        restored = SimulationStepper.restore(
            pathlib.Path(policy.path_for("k4")).read_bytes()
        )
        assert drain(restored) == schedule_fingerprint(stepper.result())
