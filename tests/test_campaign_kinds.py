"""One campaign engine for every trial kind: keys, codec, runner, faults.

Scheduler, federation and stream trials share one codec, one trial key and
one runner, driven by the :class:`~repro.campaign.kinds.TrialKind` table.
These tests hold that engine to the same contract for each kind, and pin
every preset's trial keys so existing stores keep resuming.
"""

import json
from pathlib import Path

import pytest

from campaign_keys import preset_keys
from repro import faults
from repro.campaign import (
    KINDS,
    CampaignRunner,
    CampaignSpec,
    ResultStore,
    SupervisorConfig,
    campaign_presets,
    kind_of,
)
from repro.campaign import spec as spec_module
from repro.campaign.spec import config_from_dict, config_to_dict
from repro.experiments.runner import ExperimentConfig
from repro.geo import FederationConfig, RegionConfig
from repro.stream import ServiceConfig
from repro.workloads.batch import WorkloadSpec
from repro.workloads.stream import StreamSpec

PINNED_KEYS = Path(__file__).with_name("data") / "campaign_keys.json"

TINY_WORKLOAD = WorkloadSpec(num_jobs=3, mean_interarrival=8.0, tpch_scales=(2,))

TINY_SPECS = {
    "scheduler": CampaignSpec(
        "tiny-scheduler",
        ExperimentConfig(num_executors=3, workload=TINY_WORKLOAD, trace_hours=24),
        axes={"scheduler": ("fifo", "pcaps")},
        baseline="fifo",
    ),
    "federation": CampaignSpec(
        "tiny-federation",
        FederationConfig(
            regions=(
                RegionConfig(name="de", grid="DE", scheduler="fifo", num_executors=2),
                RegionConfig(name="on", grid="ON", scheduler="fifo", num_executors=2),
            ),
            workload=TINY_WORKLOAD,
        ),
        axes={"routing": ("round-robin", "carbon-greedy")},
        baseline="round-robin",
    ),
    "stream": CampaignSpec(
        "tiny-stream",
        ServiceConfig(
            experiment=ExperimentConfig(num_executors=3, trace_hours=24),
            stream=StreamSpec(mean_interarrival=8.0, tpch_scales=(2,), max_jobs=3),
            epoch_events=64,
        ),
        axes={"experiment.scheduler": ("fifo", "pcaps")},
        baseline="fifo",
    ),
}


def test_tiny_specs_cover_every_kind():
    assert {name: spec.kind.name for name, spec in TINY_SPECS.items()} == {
        name: name for name in KINDS
    }


def test_every_preset_key_matches_the_pinned_file():
    """Keys from before the three campaign paths were merged: 21 presets,
    427 trials, at a fixed code version."""
    pinned = json.loads(PINNED_KEYS.read_text())
    assert len(pinned) == 21
    assert sum(len(keys) for keys in pinned.values()) == 427
    assert preset_keys() == pinned


def test_codec_round_trips_every_preset_trial():
    trials = [c for spec in campaign_presets().values() for c in spec.trials()]
    assert len(trials) == 427
    for config in trials:
        assert config_from_dict(config_to_dict(config), type(config)) == config


def test_presets_are_unique_and_typed(monkeypatch):
    presets = campaign_presets()
    assert {spec.kind.name for spec in presets.values()} == set(KINDS)
    for spec in presets.values():
        assert all(kind_of(config) is spec.kind for config in spec.trials())
    monkeypatch.setattr(
        spec_module, "_stream_presets", spec_module._federation_presets
    )
    with pytest.raises(ValueError, match="duplicate campaign preset 'geo-smoke'"):
        campaign_presets()


@pytest.mark.parametrize("kind", list(TINY_SPECS))
def test_pool_matches_inline(kind, tmp_path):
    spec = TINY_SPECS[kind]
    inline = CampaignRunner(ResultStore(tmp_path / "inline.jsonl"), workers=0).run(spec)
    pooled = CampaignRunner(ResultStore(tmp_path / "pool.jsonl"), workers=2).run(spec)
    assert not inline.failures and not pooled.failures
    assert len(inline.records) == 2
    assert {r.key: r.metrics for r in pooled.records} == {
        r.key: r.metrics for r in inline.records
    }


@pytest.mark.parametrize("kind", list(TINY_SPECS))
def test_error_fault_is_retried_to_ok(kind, tmp_path):
    plan = faults.FaultPlan(rules=(faults.FaultRule(kind="error", occasions=(1,)),))
    runner = CampaignRunner(
        ResultStore(tmp_path / "r.jsonl"),
        workers=0,
        supervisor=SupervisorConfig(max_attempts=2, backoff_base_s=0.001),
    )
    with faults.injecting(plan):
        run = runner.run(TINY_SPECS[kind])
    assert [r.status for r in run.records] == ["ok", "ok"]
    assert all(r.attempts == 2 for r in run.records)
    assert all("injected fault" in r.attempt_errors[0] for r in run.records)


def test_unknown_config_type_is_rejected():
    with pytest.raises(TypeError, match="no campaign trial kind"):
        kind_of(TINY_WORKLOAD)
