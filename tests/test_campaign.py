"""Tests for the repro.campaign subsystem (spec/cache/store/executor/reports)."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.campaign.cache import CacheStats, code_fingerprint, trial_key
from repro.campaign.executor import (
    CampaignRunner,
    run_trial_to_record,
)
from repro.campaign.kinds import SCHEDULER
from repro.campaign.reports import (
    MetricStats,
    campaign_report,
    format_campaign_report,
    sweep_points,
)
from repro.campaign.spec import (
    CampaignSpec,
    campaign_presets,
    config_from_dict,
    config_to_dict,
)
from repro.campaign.store import (
    STATUS_ERROR,
    STATUS_OK,
    ResultStore,
    TrialRecord,
)
from repro.experiments.runner import ExperimentConfig, run_matchup
from repro.simulator.metrics import compare_to_baseline
from repro.workloads.batch import WorkloadSpec


def tiny_config(**overrides) -> ExperimentConfig:
    params = dict(
        num_executors=4,
        workload=WorkloadSpec(
            family="tpch", num_jobs=3, tpch_scales=(2,), mean_interarrival=5.0
        ),
        trace_hours=120,
    )
    params.update(overrides)
    return ExperimentConfig(**params)


def tiny_spec(**kwargs) -> CampaignSpec:
    params = dict(
        name="tiny",
        base=tiny_config(),
        axes={"scheduler": ("fifo", "pcaps"), "seed": (0, 1)},
        baseline="fifo",
    )
    params.update(kwargs)
    return CampaignSpec(**params)


class TestCampaignSpec:
    def test_cartesian_expansion(self):
        spec = tiny_spec()
        trials = spec.trials()
        assert len(trials) == 4
        assert {(t.scheduler, t.seed) for t in trials} == {
            ("fifo", 0), ("fifo", 1), ("pcaps", 0), ("pcaps", 1),
        }

    def test_dotted_workload_axis(self):
        spec = tiny_spec(
            axes={"scheduler": ("fifo",), "workload.num_jobs": (2, 5)}
        )
        assert sorted(t.workload.num_jobs for t in spec.trials()) == [2, 5]

    def test_baseline_trials_added_when_missing(self):
        spec = tiny_spec(
            axes={"scheduler": ("pcaps",), "gamma": (0.2, 0.8), "seed": (0, 1)},
            baseline="fifo",
        )
        trials = spec.trials()
        baseline_trials = [t for t in trials if t.scheduler == "fifo"]
        # One baseline per replicate (seed), none per policy axis (gamma).
        assert len(baseline_trials) == 2
        assert {t.seed for t in baseline_trials} == {0, 1}
        # Baseline trials come first.
        assert trials[0].scheduler == "fifo"
        assert len(trials) == 6

    def test_no_baseline_duplication_when_in_axis(self):
        assert len(tiny_spec().trials()) == 4

    def test_duplicate_trials_deduped(self):
        spec = tiny_spec(axes={"scheduler": ("fifo", "fifo")}, baseline=None)
        assert len(spec.trials()) == 1

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            tiny_spec(axes={"scheduler": ()})

    def test_scaled_overrides(self):
        scaled = tiny_spec().scaled(num_jobs=7, num_executors=12)
        assert scaled.base.workload.num_jobs == 7
        assert scaled.base.num_executors == 12
        assert scaled.axes == tiny_spec().axes

    def test_presets_cover_paper_campaigns(self):
        presets = campaign_presets()
        for expected in (
            "table2", "table3", "fig7", "fig8", "fig9", "fig10", "fig11",
            "fig12", "fig13-pcaps", "fig13-cap", "fig14", "fig16-17",
            "fig18-19", "demo", "smoke",
        ):
            assert expected in presets
        for spec in presets.values():
            assert spec.num_trials() > 0
            assert spec.baseline is not None

    def test_demo_preset_shape(self):
        """The acceptance-criteria campaign: ≥2 schedulers × ≥2 grids × ≥3 seeds."""
        spec = campaign_presets()["demo"]
        axes = dict(spec.axes)
        assert len(axes["scheduler"]) >= 2
        assert len(axes["grid"]) >= 2
        assert len(axes["seed"]) >= 3
        assert spec.num_trials() >= 24


class TestConfigSerialization:
    def test_roundtrip_tpch(self):
        config = tiny_config(scheduler="pcaps", gamma=0.7, cap_min_quota=3)
        assert config_from_dict(config_to_dict(config), ExperimentConfig) == config

    def test_roundtrip_alibaba(self):
        config = tiny_config(
            workload=WorkloadSpec(family="alibaba", num_jobs=2)
        )
        assert config_from_dict(config_to_dict(config), ExperimentConfig) == config

    def test_dict_is_json_safe(self):
        payload = json.dumps(config_to_dict(tiny_config()))
        assert config_from_dict(json.loads(payload), ExperimentConfig) == tiny_config()


class TestTrialKey:
    def test_identical_configs_share_a_key(self):
        assert trial_key(tiny_config()) == trial_key(tiny_config())

    def test_any_field_change_changes_the_key(self):
        base = trial_key(tiny_config())
        assert trial_key(tiny_config(seed=1)) != base
        assert trial_key(tiny_config(grid="CAISO")) != base
        assert trial_key(
            tiny_config(workload=replace(tiny_config().workload, num_jobs=4))
        ) != base

    def test_code_version_invalidates(self):
        config = tiny_config()
        assert trial_key(config, "1.0.0") != trial_key(config, "2.0.0")

    def test_code_fingerprint_hashes_the_source(self):
        import repro

        fingerprint = code_fingerprint()
        assert fingerprint.startswith(f"{repro.__version__}+")
        assert fingerprint == code_fingerprint()  # stable within a process

    def test_cache_stats_rates(self):
        assert CacheStats().hit_rate == 0.0
        assert CacheStats(hits=3, misses=1).hit_rate == 0.75


def ok_record(key="k", campaign="c", scheduler="fifo", seed=0, **metrics):
    config = config_to_dict(tiny_config(scheduler=scheduler, seed=seed))
    defaults = dict(carbon_footprint=100.0, ect=50.0, avg_jct=10.0)
    defaults.update(metrics)
    return TrialRecord(
        key=key, campaign=campaign, config=config,
        status=STATUS_OK, metrics=defaults,
    )


class TestResultStore:
    def test_append_and_load(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        record = ok_record(key="a")
        store.append(record)
        assert store.records() == [record]

    def test_last_write_wins(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        failed = TrialRecord(
            key="a", campaign="c", config=config_to_dict(tiny_config()),
            status=STATUS_ERROR, error="boom",
        )
        store.append(failed)
        assert store.completed() == {}
        fixed = ok_record(key="a")
        store.append(fixed)
        assert store.completed() == {"a": fixed}
        assert len(store) == 1

    def test_select_preserves_order(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        for key in ("x", "y", "z"):
            store.append(ok_record(key=key))
        assert [r.key for r in store.select(["z", "missing", "x"])] == ["z", "x"]

    def test_missing_file_is_empty(self, tmp_path):
        assert ResultStore(tmp_path / "nope.jsonl").records() == []

    def test_record_supports_compare_to_baseline(self):
        base = ok_record(scheduler="fifo", carbon_footprint=200.0, ect=100.0, avg_jct=20.0)
        other = ok_record(
            key="p", scheduler="pcaps",
            carbon_footprint=100.0, ect=110.0, avg_jct=30.0,
        )
        normalized = compare_to_baseline(other, base)
        assert normalized.carbon_reduction_pct == pytest.approx(50.0)
        assert normalized.ect_ratio == pytest.approx(1.1)
        assert normalized.jct_ratio == pytest.approx(1.5)

    def test_error_record_has_no_metrics(self):
        record = TrialRecord(
            key="a", campaign="c", config=config_to_dict(tiny_config()),
            status=STATUS_ERROR, error="boom",
        )
        with pytest.raises(ValueError):
            _ = record.carbon_footprint


class TestCampaignRunner:
    def test_inline_run_and_cache(self, tmp_path):
        runner = CampaignRunner(ResultStore(tmp_path / "r.jsonl"), workers=0)
        run = runner.run(tiny_spec())
        assert len(run.records) == 4
        assert not run.failures
        assert run.stats.misses == 4 and run.stats.hits == 0

        rerun = runner.run(tiny_spec())
        assert rerun.stats.hits == 4 and rerun.stats.misses == 0
        assert rerun.stats.hit_rate == 1.0
        assert [r.key for r in rerun.records] == [r.key for r in run.records]
        assert {r.key: r.metrics for r in rerun.records} == {
            r.key: r.metrics for r in run.records
        }

    def test_inline_runs_never_import_the_process_pool(self, tmp_path):
        """``workers=0`` (and every ``run_sweep``) runs without loading
        ``multiprocessing``; only the pool path imports it."""
        code = (
            "import sys\n"
            "from repro.campaign import (\n"
            "    CampaignRunner, ResultStore, campaign_presets, run_sweep)\n"
            "spec = campaign_presets()['smoke']\n"
            "run = CampaignRunner(ResultStore('s.jsonl'), workers=0).run(spec)\n"
            "assert len(run.ok_records) == 4\n"
            "assert run_sweep(spec, 'seed')\n"
            "pool = ('multiprocessing', 'concurrent.futures.process')\n"
            "print([name for name in pool if name in sys.modules])\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True, cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=str(src)),
        ).stdout
        assert out.strip() == "[]"

    def test_overlapping_campaign_shares_trials(self, tmp_path):
        runner = CampaignRunner(ResultStore(tmp_path / "r.jsonl"), workers=0)
        runner.run(tiny_spec())
        overlapping = tiny_spec(
            name="wider", axes={"scheduler": ("fifo", "pcaps"), "seed": (0, 1, 2)}
        )
        run = runner.run(overlapping)
        assert run.stats.hits == 4 and run.stats.misses == 2

    def test_no_resume_reruns_everything(self, tmp_path):
        runner = CampaignRunner(ResultStore(tmp_path / "r.jsonl"), workers=0)
        runner.run(tiny_spec())
        run = runner.run(tiny_spec(), resume=False)
        assert run.stats.hits == 0 and run.stats.misses == 4

    def test_progress_callback_counts_every_trial(self, tmp_path):
        runner = CampaignRunner(ResultStore(tmp_path / "r.jsonl"), workers=0)
        seen: list[tuple[int, int]] = []
        runner.run(tiny_spec(), on_progress=lambda d, t, _m: seen.append((d, t)))
        assert seen == [(1, 4), (2, 4), (3, 4), (4, 4)]

    def test_failure_isolation_and_retry(self, tmp_path, monkeypatch):
        import repro.campaign.executor as executor_module

        real = executor_module.run_experiment

        def explode_on_pcaps(config, carbon_trace=None):
            if config.scheduler == "pcaps":
                raise RuntimeError("injected failure")
            return real(config, carbon_trace=carbon_trace)

        monkeypatch.setattr(executor_module, "run_experiment", explode_on_pcaps)
        runner = CampaignRunner(ResultStore(tmp_path / "r.jsonl"), workers=0)
        run = runner.run(tiny_spec())
        assert len(run.failures) == 2
        assert all("injected failure" in r.error for r in run.failures)
        assert len(run.ok_records) == 2  # fifo trials survived

        # Failed trials are not cached; a later resume retries exactly them.
        monkeypatch.setattr(executor_module, "run_experiment", real)
        retry = runner.run(tiny_spec())
        assert retry.stats.hits == 2 and retry.stats.misses == 2
        assert not retry.failures

    def test_pool_matches_inline_bit_for_bit(self, tmp_path):
        spec = tiny_spec()
        inline = CampaignRunner(
            ResultStore(tmp_path / "inline.jsonl"), workers=0
        ).run(spec)
        pooled = CampaignRunner(
            ResultStore(tmp_path / "pool.jsonl"), workers=2
        ).run(spec)
        assert not pooled.failures
        assert {r.key: r.metrics for r in pooled.records} == {
            r.key: r.metrics for r in inline.records
        }

    def test_resume_is_interchangeable_between_inline_and_pool(self, tmp_path):
        """A store half-filled by one mode finishes in the other without
        re-running anything, ending at the same records either way."""
        full = tiny_spec()
        half = tiny_spec(axes={"scheduler": ("fifo", "pcaps"), "seed": (0,)})

        def comparable(store):
            return {
                r.key: (r.campaign, r.config, r.status, r.metrics, r.attempts)
                for r in store.records()
            }

        reference = ResultStore(tmp_path / "ref.jsonl")
        CampaignRunner(reference, workers=0).run(full)
        for name, first, second in (("a", 0, 2), ("b", 2, 0)):
            store = ResultStore(tmp_path / f"{name}.jsonl")
            CampaignRunner(store, workers=first).run(half)
            run = CampaignRunner(store, workers=second).run(full)
            assert run.stats.hits == 2 and run.stats.misses == 2
            assert comparable(store) == comparable(reference)

    def test_collect_reads_store_only(self, tmp_path):
        runner = CampaignRunner(ResultStore(tmp_path / "r.jsonl"), workers=0)
        assert runner.collect(tiny_spec()) == []
        run = runner.run(tiny_spec())
        collected = runner.collect(tiny_spec())
        assert [r.key for r in collected] == [r.key for r in run.records]


class TestReports:
    def _records(self):
        records = []
        for seed, carbon, ect, jct in ((0, 200.0, 100.0, 20.0), (1, 100.0, 80.0, 10.0)):
            records.append(
                ok_record(
                    key=f"fifo{seed}", scheduler="fifo", seed=seed,
                    carbon_footprint=carbon, ect=ect, avg_jct=jct,
                )
            )
            records.append(
                ok_record(
                    key=f"pcaps{seed}", scheduler="pcaps", seed=seed,
                    carbon_footprint=carbon / 2, ect=ect * 1.1, avg_jct=jct * 1.5,
                )
            )
        return records

    def test_metric_stats(self):
        stats = MetricStats.of([1.0, 2.0, 3.0, 4.0])
        assert stats.mean == pytest.approx(2.5)
        assert stats.p50 == pytest.approx(2.5)
        assert stats.p95 == pytest.approx(3.85)

    def test_metric_stats_single_replicate_is_exact(self):
        """A one-replicate cell reports p50 == p95 == mean — the exact
        observation, never NaN or an interpolated percentile."""
        stats = MetricStats.of([3.7])
        assert stats.mean == stats.p50 == stats.p95 == 3.7

    def test_metric_stats_empty_raises_cleanly(self):
        with pytest.raises(ValueError, match="at least one value"):
            MetricStats.of([])

    def test_single_replicate_cell_renders(self):
        """Regression: a campaign with one trial per cell must aggregate
        and render, with every statistic equal to the lone replicate."""
        records = [
            ok_record(key="f0", scheduler="fifo", carbon_footprint=180.0),
            ok_record(key="p0", scheduler="pcaps", carbon_footprint=90.0),
        ]
        rows = campaign_report(records, None, SCHEDULER)
        assert [row.n for row in rows] == [1, 1]
        for row in rows:
            assert row.carbon.mean == row.carbon.p50 == row.carbon.p95
            assert row.carbon.mean == row.carbon.mean  # not NaN
        rendered = format_campaign_report(rows)
        assert "fifo" in rendered and "pcaps" in rendered
        assert "nan" not in rendered.lower()

    def test_ok_status_without_metrics_is_not_ok(self):
        """An ``ok``-status line with no metrics (hand-edited or glued
        store residue) must not crash reports or serve as a cache hit."""
        broken = TrialRecord(
            key="broken", campaign="c",
            config=config_to_dict(tiny_config()), status=STATUS_OK,
        )
        assert not broken.ok
        assert campaign_report([broken], None, SCHEDULER) == []

    def test_metricless_ok_record_is_not_a_cache_hit(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        store.append(
            TrialRecord(
                key="broken", campaign="c",
                config=config_to_dict(tiny_config()), status=STATUS_OK,
            )
        )
        assert store.completed() == {}  # resume will re-run the trial

    def test_normalized_aggregation(self):
        rows = campaign_report(self._records(), "fifo", SCHEDULER)
        by_scheduler = {row.policy: row for row in rows}
        assert by_scheduler["fifo"].carbon.mean == pytest.approx(0.0)
        assert by_scheduler["fifo"].ect.mean == pytest.approx(1.0)
        pcaps = by_scheduler["pcaps"]
        assert pcaps.n == 2
        assert pcaps.carbon.mean == pytest.approx(50.0)
        assert pcaps.ect.mean == pytest.approx(1.1)
        assert pcaps.jct.mean == pytest.approx(1.5)

    def test_absolute_aggregation(self):
        rows = campaign_report(self._records(), None, SCHEDULER)
        pcaps = next(r for r in rows if r.policy == "pcaps")
        assert not pcaps.normalized
        assert pcaps.carbon.mean == pytest.approx(75.0)

    def test_report_order_independent_of_record_order(self):
        records = self._records()
        assert campaign_report(records, "fifo", SCHEDULER) == campaign_report(
            list(reversed(records)), "fifo", SCHEDULER
        )

    def test_error_records_excluded(self):
        records = self._records()
        records.append(
            TrialRecord(
                key="bad", campaign="c", config=config_to_dict(tiny_config()),
                status=STATUS_ERROR, error="boom",
            )
        )
        assert campaign_report(records, "fifo", SCHEDULER) == campaign_report(
            self._records(), "fifo", SCHEDULER
        )

    def test_format_report_renders_rows(self):
        text = format_campaign_report(
            campaign_report(self._records(), "fifo", SCHEDULER), title="T"
        )
        assert "T" in text and "pcaps" in text and "carbon_red%" in text
        assert format_campaign_report([]) == "(no completed trials in store)"

    def test_sweep_points_sorted_and_normalized(self, tmp_path):
        spec = tiny_spec(
            axes={"scheduler": ("pcaps",), "gamma": (0.9, 0.1)}, baseline="fifo"
        )
        run = CampaignRunner(ResultStore(tmp_path / "r.jsonl"), workers=0).run(spec)
        points = sweep_points(run.records, baseline="fifo", parameter="gamma")
        assert [p.parameter for p in points] == [0.1, 0.9]
        assert all(p.ect_ratio > 0 for p in points)


class TestDeterminism:
    """The property the content-addressed cache is sound under."""

    def test_run_matchup_bit_identical_across_invocations(self):
        config = tiny_config(seed=3)
        first = run_matchup(["fifo", "pcaps"], config)
        second = run_matchup(["fifo", "pcaps"], config)
        assert first.keys() == second.keys()
        for name in first:
            assert first[name].carbon_footprint == second[name].carbon_footprint
            assert first[name].ect == second[name].ect
            assert first[name].avg_jct == second[name].avg_jct
            assert first[name].finishes == second[name].finishes

    def test_trial_record_metrics_deterministic(self):
        config = tiny_config(scheduler="cap-fifo", seed=2)
        key = trial_key(config)
        first = run_trial_to_record(key, "t", config)
        second = run_trial_to_record(key, "t", config)
        assert first.ok and second.ok
        assert first.metrics == second.metrics
