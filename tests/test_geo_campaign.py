"""Tests for federation campaigns (the campaign engine's ``federation``
trial kind) and the ``repro geo`` CLI."""

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
from repro.campaign.kinds import FEDERATION
from repro.campaign.spec import apply_axis_value, config_from_dict, config_to_dict
from repro.cli import main
from repro.disrupt import DisruptionEvent, DisruptionSchedule
from repro.geo import FederationConfig, RegionConfig
from repro.workloads.batch import WorkloadSpec


def tiny_base(**overrides) -> FederationConfig:
    params = dict(
        regions=(
            RegionConfig(name="de", grid="DE", scheduler="fifo",
                         num_executors=3),
            RegionConfig(name="on", grid="ON", scheduler="fifo",
                         num_executors=3),
        ),
        routing="round-robin",
        workload=WorkloadSpec(num_jobs=4, mean_interarrival=8.0,
                              tpch_scales=(2,)),
    )
    params.update(overrides)
    return FederationConfig(**params)


class TestSerialization:
    def test_round_trip(self):
        config = tiny_base(routing="carbon-forecast", seed=9)
        assert config_from_dict(config_to_dict(config), FederationConfig) == config

    def test_key_is_content_addressed(self):
        config = tiny_base()
        assert trial_key(config, "v1") == trial_key(config, "v1")
        assert trial_key(config, "v1") != trial_key(
            config.with_routing("queue-aware"), "v1"
        )
        assert trial_key(config, "v1") != trial_key(config, "v2")


class TestSpec:
    def test_axes_expand_cartesian(self):
        spec = CampaignSpec(
            "t", tiny_base(),
            axes={"routing": ("round-robin", "carbon-greedy"), "seed": (0, 1)},
            baseline="round-robin",
        )
        trials = spec.trials()
        assert len(trials) == 4
        assert {t.routing for t in trials} == {"round-robin", "carbon-greedy"}

    def test_baseline_trials_injected_when_missing(self):
        spec = CampaignSpec(
            "t", tiny_base(),
            axes={"routing": ("carbon-forecast",), "seed": (0, 1)},
            baseline="round-robin",
        )
        trials = spec.trials()
        baselines = [t for t in trials if t.routing == "round-robin"]
        assert len(baselines) == 2  # one per seed replicate

    def test_dotted_axes_reach_nested_configs(self):
        config = tiny_base()
        assert apply_axis_value(config, "workload.num_jobs", 9).workload.num_jobs == 9
        assert apply_axis_value(
            config, "transfer.kwh_per_gb", 0.5
        ).transfer.kwh_per_gb == 0.5
        swept = apply_axis_value(config, "regions.scheduler", "pcaps")
        assert all(r.scheduler == "pcaps" for r in swept.regions)

    def test_presets_include_geo_sweep(self):
        presets = {
            name: spec
            for name, spec in campaign_presets().items()
            if spec.kind is FEDERATION
        }
        assert "geo-sweep" in presets and "geo-smoke" in presets
        sweep = presets["geo-sweep"]
        assert len(sweep.base.regions) == 6
        routings = dict(sweep.axes)["routing"]
        assert set(routings) == {
            "round-robin", "queue-aware", "carbon-greedy", "carbon-forecast",
        }
        for spec in presets.values():
            assert spec.trials(), spec.name


class TestExecution:
    def test_run_populates_store_and_resumes(self, tmp_path):
        spec = CampaignSpec(
            "t", tiny_base(),
            axes={"routing": ("round-robin", "carbon-greedy")},
            baseline="round-robin",
        )
        store = ResultStore(tmp_path / "geo.jsonl")
        first = CampaignRunner(store, workers=0).run(spec)
        assert first.stats.misses == 2 and not first.failures
        second = CampaignRunner(store, workers=0).run(spec)
        assert second.stats.hits == 2 and second.stats.misses == 0
        assert [r.key for r in first.records] == [r.key for r in second.records]

    def test_pool_execution_matches_inline(self, tmp_path):
        """Geo trials fan out across the shared campaign process pool."""
        spec = CampaignSpec(
            "t", tiny_base(),
            axes={"routing": ("round-robin", "carbon-greedy")},
            baseline="round-robin",
        )
        pooled = CampaignRunner(
            ResultStore(tmp_path / "pool.jsonl"), workers=2
        ).run(spec)
        inline = CampaignRunner(
            ResultStore(tmp_path / "inline.jsonl"), workers=0
        ).run(spec)
        assert not pooled.failures
        by_key_pool = {r.key: r.metrics for r in pooled.records}
        by_key_inline = {r.key: r.metrics for r in inline.records}
        assert by_key_pool == by_key_inline  # determinism across processes

    def test_failure_isolated_as_error_record(self, tmp_path, monkeypatch):
        spec = CampaignSpec(
            "t", tiny_base(), axes={"routing": ("round-robin",)},
            baseline="round-robin",
        )
        monkeypatch.setattr(
            "repro.campaign.kinds.run_federation",
            lambda config: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        run = CampaignRunner(ResultStore(tmp_path / "geo.jsonl"), workers=0).run(spec)
        assert len(run.failures) == 1
        assert "boom" in run.failures[0].error

    def test_cached_progress_lines_increment(self, tmp_path):
        spec = CampaignSpec(
            "t", tiny_base(),
            axes={"routing": ("round-robin", "carbon-greedy")},
            baseline="round-robin",
        )
        store = ResultStore(tmp_path / "geo.jsonl")
        CampaignRunner(store, workers=0).run(spec)
        lines: list[tuple[int, int, str]] = []
        CampaignRunner(store, workers=0).run(
            spec, on_progress=lambda d, t, line: lines.append((d, t, line))
        )
        assert [(d, t) for d, t, _ in lines] == [(1, 2), (2, 2)]
        assert all(line.startswith("cached ") for _, _, line in lines)

    def test_report_normalizes_to_baseline(self, tmp_path):
        spec = CampaignSpec(
            "t", tiny_base(),
            axes={"routing": ("round-robin", "carbon-greedy"), "seed": (0, 1)},
            baseline="round-robin",
        )
        run = CampaignRunner(ResultStore(tmp_path / "geo.jsonl"), workers=0).run(spec)
        rows = campaign_report(run.records, "round-robin", FEDERATION)
        by_routing = {row.policy: row for row in rows}
        assert by_routing["round-robin"].carbon.mean == pytest.approx(0.0)
        assert by_routing["round-robin"].n == 2
        table = format_campaign_report(rows, title="x")
        assert "carbon-greedy" in table and "carbon_red%" in table

    def report_rows(self, tmp_path, base, axes):
        spec = CampaignSpec("t", base, axes=axes, baseline="round-robin")
        run = CampaignRunner(ResultStore(tmp_path / "geo.jsonl"), workers=0).run(spec)
        assert not run.failures
        rows = campaign_report(run.records, "round-robin", FEDERATION)
        assert all(row.n == 1 for row in rows)
        return rows

    def test_report_row_per_routing_and_region_scheduler(self, tmp_path):
        """A swept ``regions.scheduler`` gets rows of its own, each paired
        with the round-robin trial that ran the same schedulers."""
        rows = self.report_rows(
            tmp_path,
            tiny_base(),
            {
                "routing": ("round-robin", "carbon-greedy"),
                "regions.scheduler": ("fifo", "pcaps"),
            },
        )
        assert [row.label for row in rows] == [
            "regions.scheduler=fifo carbon-greedy",
            "regions.scheduler=fifo round-robin",
            "regions.scheduler=pcaps carbon-greedy",
            "regions.scheduler=pcaps round-robin",
        ]
        for row in rows:
            if row.policy == "round-robin":
                assert row.carbon.mean == 0.0 and row.ect.mean == 1.0

    def test_report_row_per_routing_and_failover(self, tmp_path):
        outage = DisruptionEvent(kind="outage", region="on", start=5.0, end=300.0)
        rows = self.report_rows(
            tmp_path,
            tiny_base().with_disruptions(DisruptionSchedule(events=(outage,))),
            {
                "routing": ("round-robin", "carbon-greedy"),
                "failover": (True, False),
            },
        )
        assert sorted(row.label for row in rows) == [
            "carbon-greedy failover=False",
            "carbon-greedy failover=True",
            "round-robin failover=False",
            "round-robin failover=True",
        ]


class TestCLI:
    GEO_ARGS = [
        "--regions", "DE,ON", "--scheduler", "fifo", "--executors", "3",
        "--jobs", "4", "--interarrival", "8",
    ]

    def test_cli_routing_choices_mirror_registry(self):
        """build_parser avoids importing repro.geo; pin the literal copy."""
        from repro.cli import GEO_ROUTING_CHOICES
        from repro.geo.routing import ROUTING_POLICY_NAMES

        assert GEO_ROUTING_CHOICES == ROUTING_POLICY_NAMES

    def test_cli_origin_normalized_and_validated(self, capsys):
        assert main(["geo", "run", *self.GEO_ARGS, "--origin", "DE"]) == 0
        capsys.readouterr()
        assert main(["geo", "run", *self.GEO_ARGS, "--origin", "caiso"]) == 2
        assert "unknown origin region" in capsys.readouterr().err

    def test_geo_run(self, capsys):
        assert main(["geo", "run", *self.GEO_ARGS]) == 0
        out = capsys.readouterr().out
        assert "routing 'carbon-forecast'" in out and "total" in out

    def test_geo_run_rejects_unknown_grid(self, capsys):
        assert main(["geo", "run", "--regions", "DE,MOON"]) == 2
        assert "unknown grids" in capsys.readouterr().err

    def test_geo_run_rejects_invalid_region_lists(self, capsys):
        assert main(["geo", "run", "--regions", "DE,DE"]) == 2
        assert "invalid federation" in capsys.readouterr().err
        assert main(["geo", "run", "--regions", ""]) == 2
        assert "invalid federation" in capsys.readouterr().err

    def test_geo_compare(self, capsys):
        assert main(["geo", "compare", *self.GEO_ARGS]) == 0
        out = capsys.readouterr().out
        for routing in ("round-robin", "queue-aware", "carbon-greedy",
                        "carbon-forecast"):
            assert routing in out

    def test_geo_sweep(self, tmp_path, capsys):
        store = str(tmp_path / "geo.jsonl")
        assert main(
            ["geo", "sweep", "geo-smoke", "--store", store, "--workers", "0"]
        ) == 0
        out = capsys.readouterr().out
        assert "2 trials" in out and "0 failed" in out

    def test_geo_sweep_unknown_preset(self, capsys):
        assert main(["geo", "sweep", "nope"]) == 2
        assert "unknown geo campaign" in capsys.readouterr().err

    def test_geo_sweep_rejects_stream_preset(self, capsys):
        assert main(["geo", "sweep", "stream-smoke"]) == 2
        assert "unknown geo campaign" in capsys.readouterr().err
