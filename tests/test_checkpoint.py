"""Checkpoint/restore determinism: the resilience layer's core contract.

``SimulationStepper.checkpoint()`` at an arbitrary cut point, restored and
drained, must be byte-identical to the uninterrupted run — on all nine
pinned fingerprint scenarios, under disruptions, and with obs collection
on. That contract is what lets service mode (``ServiceRunner``) restore a
rolling checkpoint without changing a single result bit.
"""

import pytest

from conftest import schedule_fingerprint
from test_fingerprints import (
    PINNED_SCENARIOS,
    SCENARIO_IDS,
    build_simulation,
    pinned,
    run_fingerprint,
)

from repro.disrupt import DisruptionSchedule, install_disruptions
from repro.experiments.runner import ExperimentConfig, workload_for
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
