"""Tests for streaming campaigns: keys, resume, presets, reports."""

import dataclasses

import pytest

from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    ResultStore,
    campaign_presets,
    campaign_report,
    format_campaign_report,
    trial_key,
)
from repro.campaign.kinds import STREAM
from repro.campaign.spec import apply_axis_value, config_from_dict, config_to_dict
from repro.experiments.runner import ExperimentConfig
from repro.stream import ServiceConfig
from repro.workloads.stream import StreamSpec


def tiny_service(**overrides) -> ServiceConfig:
    params = dict(
        experiment=ExperimentConfig(
            scheduler="fifo", num_executors=4, seed=1
        ),
        stream=StreamSpec(
            mean_interarrival=8.0, tpch_scales=(2,), seed=1, max_jobs=6
        ),
        epoch_events=128,
    )
    params.update(overrides)
    return ServiceConfig(**params)


def tiny_spec(name="tiny-stream") -> CampaignSpec:
    return CampaignSpec(
        name,
        tiny_service(),
        axes={"experiment.scheduler": ("fifo", "pcaps")},
        baseline="fifo",
    )


class TestSerialization:
    def test_service_config_round_trips(self):
        config = tiny_service(window_s=300.0, ring_windows=24)
        assert config_from_dict(config_to_dict(config), ServiceConfig) == config

    def test_alibaba_model_round_trips(self):
        config = tiny_service(
            stream=StreamSpec(family="alibaba", max_jobs=4, seed=2)
        )
        assert config_from_dict(config_to_dict(config), ServiceConfig) == config


class TestTrialKeys:
    def test_key_is_stable_across_processes_shape(self):
        config = tiny_service()
        assert trial_key(config, "v1") == trial_key(
            config, "v1"
        )

    def test_cadence_fields_do_not_change_the_key(self):
        base = tiny_service()
        assert set(STREAM.key_excluded) <= set(config_to_dict(base))
        recadenced = dataclasses.replace(
            base, epoch_events=7, checkpoint_every_epochs=3,
            checkpoint_dir="/tmp/ckpt",
        )
        assert trial_key(base, "v1") == trial_key(
            recadenced, "v1"
        )

    @pytest.mark.parametrize(
        "field_name,value",
        [
            ("gc_policy", "keep"),
            ("mean_interarrival", 9.0),
            ("seed", 2),
            ("max_jobs", 7),
            ("horizon_s", 500.0),
        ],
    )
    def test_every_stream_spec_field_changes_the_key(self, field_name, value):
        base = tiny_service()
        changed = dataclasses.replace(
            base,
            stream=dataclasses.replace(base.stream, **{field_name: value}),
        )
        assert trial_key(base, "v1") != trial_key(
            changed, "v1"
        )

    def test_window_shape_changes_the_key(self):
        base = tiny_service()
        assert trial_key(base, "v1") != trial_key(
            dataclasses.replace(base, window_s=120.0), "v1"
        )

    def test_code_version_changes_the_key(self):
        config = tiny_service()
        assert trial_key(config, "v1") != trial_key(
            config, "v2"
        )


class TestSpecExpansion:
    def test_dotted_axes_reach_nested_configs(self):
        config = apply_axis_value(tiny_service(), "stream.seed", 9)
        assert config.stream.seed == 9
        config = apply_axis_value(config, "experiment.scheduler", "decima")
        assert config.experiment.scheduler == "decima"
        config = apply_axis_value(config, "window_s", 60.0)
        assert config.window_s == 60.0

    def test_trials_expand_the_cartesian_product(self):
        spec = CampaignSpec(
            "x",
            tiny_service(),
            axes={
                "experiment.scheduler": ("fifo", "pcaps"),
                "stream.seed": (0, 1, 2),
            },
            baseline="fifo",
        )
        trials = spec.trials()
        assert len(trials) == 6
        assert len({trial_key(t, "v") for t in trials}) == 6

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            CampaignSpec("x", tiny_service(), axes={"stream.seed": ()})

    def test_presets_expand(self):
        presets = {
            name: spec
            for name, spec in campaign_presets().items()
            if spec.kind is STREAM
        }
        assert {"stream-smoke", "stream-steady"} <= set(presets)
        assert len(presets["stream-smoke"].trials()) == 2
        assert len(presets["stream-steady"].trials()) == 6


class TestCampaignExecution:
    def test_run_then_resume_hits_cache(self, tmp_path):
        store = ResultStore(tmp_path / "stream.jsonl")
        spec = tiny_spec()
        first = CampaignRunner(store, workers=0).run(spec)
        assert len(first.records) == 2
        assert not first.failures
        assert first.stats.misses == 2
        for record in first.records:
            assert record.metrics["num_jobs"] == 6
            assert len(record.metrics["fingerprint"]) == 64

        resumed = CampaignRunner(store, workers=0).run(spec)
        assert resumed.stats.hits == 2 and resumed.stats.misses == 0

    def test_keyed_trials_match_run_records(self, tmp_path):
        store = ResultStore(tmp_path / "stream.jsonl")
        spec = tiny_spec()
        keys = [key for key, _ in CampaignRunner(store).keyed_trials(spec)]
        run = CampaignRunner(store, workers=0).run(spec)
        assert sorted(keys) == sorted(r.key for r in run.records)

    def test_report_aggregates_by_scheduler(self, tmp_path):
        store = ResultStore(tmp_path / "stream.jsonl")
        run = CampaignRunner(store, workers=0).run(tiny_spec())
        rows = campaign_report(run.records, "fifo", STREAM)
        assert {row.policy for row in rows} == {"fifo", "pcaps"}
        assert all(record.metrics["num_jobs"] == 6 for record in run.records)
        text = format_campaign_report(rows, title="t")
        assert "fifo" in text and "carbon" in text

    def test_cli_sweep_runs_and_resumes(self, tmp_path, capsys):
        from repro.cli import main

        store = tmp_path / "stream.jsonl"
        args = [
            "stream", "sweep", "stream-smoke", "--store", str(store),
            "--workers", "0", "--quiet",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "fifo" in out and "pcaps" in out
        assert main(args) == 0
        assert "2 cached" in capsys.readouterr().out
