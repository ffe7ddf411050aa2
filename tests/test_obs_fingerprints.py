"""Instrumentation neutrality: obs collection never changes a schedule.

The ``repro.obs`` determinism contract, enforced against the engine's
bit-identity suite: every one of the nine pinned SHA-256 scenarios must
produce a byte-identical fingerprint with collection enabled, in batch and
in service mode — probes count, time, and record, but never touch RNG
state or event ordering.
The suite also pins the obs-off fast path (a stepper built without an
observer holds ``None`` in every probe slot, so the per-event cost is one
attribute load + ``is None`` test) and that enabling collection actually
collects (non-zero engine counters — neutrality by not observing anything
would be a vacuous pass).
"""

import json

import pytest

from repro import obs
from repro.experiments.runner import workload_for
from repro.simulator import engine as engine_mod
from repro.stream import ServiceRunner, run_service

from fingerprint_scenarios import (
    PINNED_SCENARIOS,
    SCENARIO_IDS,
    build_simulation,
    pinned,
    run_fingerprint,
    schedule_fingerprint,
    service_fingerprint,
    stream_config_for,
)


def run_observed_fingerprint(config) -> tuple[str, obs.Observer]:
    with obs.collecting(f"neutrality-{config.scheduler}") as observer:
        fingerprint = schedule_fingerprint(
            build_simulation(config).run(workload_for(config))
        )
    return fingerprint, observer


class TestFingerprintNeutrality:
    @pytest.mark.parametrize("config", PINNED_SCENARIOS, ids=SCENARIO_IDS)
    def test_observed_run_is_bit_identical(self, config):
        """The headline contract: obs-on == obs-off, byte for byte."""
        baseline = run_fingerprint(config)
        observed, observer = run_observed_fingerprint(config)
        assert observed == baseline
        # ... and the observer actually saw the engine run: neutrality is
        # only meaningful if the probes fired.
        registry = observer.registry
        assert registry.value("engine.events.task_done") > 0
        assert registry.value("engine.events.arrival") > 0
        assert registry.value("engine.heap.high_water") > 0
        assert registry.histogram("engine.select_latency_s").count > 0

    def test_frontier_cache_counters_fire(self):
        """The pinned pcaps scenario exercises both frontier caches, so
        every frontier-cache counter pair is covered."""
        _, pcaps_obs = run_observed_fingerprint(pinned("pcaps"))
        pcaps_reg = pcaps_obs.registry
        assert (
            pcaps_reg.value("engine.cache.column.hits")
            + pcaps_reg.value("engine.cache.column.misses")
        ) > 0
        assert (
            pcaps_reg.value("engine.cache.matrix.hits")
            + pcaps_reg.value("engine.cache.matrix.misses")
        ) > 0

    @pytest.mark.parametrize("config", PINNED_SCENARIOS, ids=SCENARIO_IDS)
    def test_obs_off_stepper_holds_no_probes(self, config):
        """The disabled fast path: no observer, no probe objects at all."""
        assert obs.current() is None
        stepper = build_simulation(config).stepper()
        assert stepper._obs is None
        assert stepper._obs_events is None
        assert stepper._cache_stats is None
        assert stepper._obs_select is None

    def test_observer_is_captured_at_construction(self):
        """Components cache the observer once; enabling collection later
        does not retroactively instrument an existing stepper."""
        config = pinned("fifo")
        stepper = build_simulation(config).stepper()
        with obs.collecting("late"):
            assert stepper._obs is None  # built before enable: stays dark
            observed = build_simulation(config).stepper()
            assert observed._obs is not None

    def test_artifacts_from_observed_pinned_trial(self, tmp_path):
        """End-to-end acceptance: a pinned pcaps trial with collection on
        yields the identical fingerprint plus valid artifacts — a Chrome
        trace and a metrics JSONL with non-zero engine counters."""
        config = pinned("pcaps")
        baseline = run_fingerprint(config)
        observed, observer = run_observed_fingerprint(config)
        assert observed == baseline

        metrics_path, trace_path = observer.write_artifacts(tmp_path)
        meta, rows = obs.read_jsonl(metrics_path)
        assert meta["label"] == "neutrality-pcaps"
        counters = {
            r["name"]: r["value"] for r in rows if r["type"] == "counter"
        }
        assert counters["engine.events.task_done"] > 0
        doc = json.loads(trace_path.read_text())
        assert isinstance(doc["traceEvents"], list)

    def test_engine_probe_slots_match_event_kinds(self):
        """The per-kind counter tuple must stay aligned with the engine's
        event-kind encoding (arrival=0 .. signal=4)."""
        config = pinned("fifo")
        with obs.collecting("kinds"):
            stepper = build_simulation(config).stepper()
            names = [c.name for c in stepper._obs_events]
        assert names == [
            "engine.events.arrival",
            "engine.events.task_done",
            "engine.events.carbon_step",
            "engine.events.capacity",
            "engine.events.signal",
        ]
        for kind, name in zip(
            (
                engine_mod._ARRIVAL,
                engine_mod._TASK_DONE,
                engine_mod._CARBON_STEP,
                engine_mod._CAPACITY,
                engine_mod._SIGNAL,
            ),
            names,
        ):
            assert names[kind] == name


@pytest.mark.parametrize("config", PINNED_SCENARIOS, ids=SCENARIO_IDS)
def test_service_run_under_observer_is_bit_identical(config):
    """Service mode: a run whose epochs emit gauges into an observer's
    registry reproduces the plain run's streaming metrics fingerprint, and
    the gauges it emitted describe that run."""
    baseline = service_fingerprint(config)
    with obs.collecting(f"service-{config.scheduler}") as observer:
        report = run_service(stream_config_for(config))
    assert report.fingerprint == baseline
    assert report.drained
    registry = observer.registry
    assert registry.value("stream.epochs") == report.epochs > 1
    assert registry.value("stream.jobs_completed") == report.jobs_completed


def test_service_without_observer_has_no_registry():
    """With no observer active the runner emits nothing: its registry is
    ``None`` and a full run leaves no observer behind."""
    assert obs.current() is None
    runner = ServiceRunner(stream_config_for(pinned("fifo")))
    assert runner.registry is None
    runner.run()
    assert runner.registry is None and obs.current() is None
