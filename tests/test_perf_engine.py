"""Tests for the engine-throughput harness (``repro perf``)."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.perf import (
    PerfMeasurement,
    PerfScenario,
    build_scenarios,
    format_report,
    measure_campaign_throughput,
    run_scenario,
    run_suite,
    smoke_scenarios,
    write_report,
)

#: The pinned file: every non-time field of ``repro perf --smoke``.
SMOKE_COUNTERS_PATH = Path(__file__).parent / "data" / "perf_smoke_counters.json"
SCENARIO_COUNTERS = (
    "events", "tasks", "select_calls", "deferrals", "steps", "views",
    "frontier_matrix_hit_rate", "frontier_column_hit_rate",
)
CAMPAIGN_COUNTERS = ("trials", "failures")


def tiny_scenario(**overrides):
    params = dict(
        name="tiny-fifo", scheduler="fifo", num_jobs=3, num_executors=4,
        trace_hours=200,
    )
    params.update(overrides)
    return PerfScenario(**params)


@pytest.fixture(scope="module")
def smoke_run():
    """What ``repro perf --smoke`` measures: the smoke rows, run with
    cache stats, and the campaign throughput."""
    measurements = {
        m.name: m
        for m in run_suite(smoke_scenarios(), collect_cache_stats=True)
    }
    return measurements, measure_campaign_throughput()


def smoke_counters(smoke_run) -> dict:
    """The work counters of ``repro perf --smoke``, as the pin file keys them."""
    measurements, campaign = smoke_run
    return {
        "scenarios": {
            name: {key: getattr(m, key) for key in SCENARIO_COUNTERS}
            for name, m in measurements.items()
        },
        "campaign": {key: campaign[key] for key in CAMPAIGN_COUNTERS},
    }


class TestScenarios:
    def test_default_grid_is_scheduler_times_jobs(self):
        scenarios = build_scenarios(
            schedulers=("fifo", "decima"), job_counts=(5, 10)
        )
        assert [s.name for s in scenarios] == [
            "fifo-5", "fifo-10", "decima-5", "decima-10",
        ]

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError):
            build_scenarios(schedulers=("nope",))

    def test_smoke_grid_is_small(self):
        scenarios = smoke_scenarios()
        assert scenarios and all(s.num_jobs <= 10 for s in scenarios)


class TestMeasurement:
    def test_run_scenario_measures_throughput(self):
        m = run_scenario(tiny_scenario())
        assert m.tasks > 0
        assert m.events >= m.tasks  # every task completion is an event
        assert m.events_per_s > 0 and m.tasks_per_s > 0
        assert m.select_calls > 0
        assert m.avg_select_latency_ms >= 0

    def test_events_counted_on_result(self):
        from repro.experiments.runner import run_experiment

        result = run_experiment(tiny_scenario().config())
        # Arrivals + one completion per task, plus carbon steps.
        assert result.events_processed >= len(result.trace.tasks) + 3

    def test_report_round_trips(self, tmp_path):
        measurements = run_suite([tiny_scenario()])
        path = tmp_path / "BENCH_engine.json"
        doc = write_report(measurements, path)
        loaded = json.loads(path.read_text())
        assert loaded["benchmark"] == "engine-throughput"
        assert loaded["scenarios"] == doc["scenarios"]
        (row,) = loaded["scenarios"]
        assert row["name"] == "tiny-fifo"
        assert row["tasks"] == measurements[0].tasks

    def test_format_report_lists_every_scenario(self):
        measurements = run_suite([tiny_scenario()])
        table = format_report(measurements)
        assert "tiny-fifo" in table and "events/s" in table


class TestSmokeCounterPin:
    """``repro perf --smoke``'s work counters repeat exactly on every
    machine, so they are pinned exactly: a change that moves one must
    say why and re-record the file in its own diff."""

    def test_smoke_counters_match_the_pin(self, smoke_run):
        pinned = json.loads(SMOKE_COUNTERS_PATH.read_text())
        fresh = smoke_counters(smoke_run)
        if fresh != {key: pinned[key] for key in fresh}:
            record = {**pinned, "numpy": np.__version__, **fresh}
            pytest.fail(
                "repro perf --smoke work counters differ from "
                f"{SMOKE_COUNTERS_PATH.name} (pinned under numpy "
                f"{pinned['numpy']}, running numpy {np.__version__}; the "
                "decima and pcaps rows follow Generator.random()). If the "
                "change is deliberate, re-record the file as:\n"
                + json.dumps(record, indent=1)
            )

    def test_pin_holds_every_smoke_row_and_counter(self):
        pinned = json.loads(SMOKE_COUNTERS_PATH.read_text())
        assert list(pinned["scenarios"]) == [s.name for s in smoke_scenarios()]
        for row in pinned["scenarios"].values():
            assert tuple(row) == SCENARIO_COUNTERS
        assert tuple(pinned["campaign"]) == CAMPAIGN_COUNTERS

    def test_pin_names_its_numpy_version(self):
        pinned = json.loads(SMOKE_COUNTERS_PATH.read_text())
        major, minor, *_ = pinned["numpy"].split(".")
        assert major.isdigit() and minor.isdigit()


class TestSmokeWorkInvariants:
    """What the smoke counters promise under any numpy version, so these
    hold even where the exact pin was recorded under another one."""

    @pytest.mark.parametrize("name", [s.name for s in smoke_scenarios()])
    def test_at_most_one_view_per_step(self, smoke_run, name):
        m = smoke_run[0][name]
        assert 0 < m.views <= m.steps

    @pytest.mark.parametrize("name", [s.name for s in smoke_scenarios()])
    def test_every_task_completion_is_an_event(self, smoke_run, name):
        m = smoke_run[0][name]
        assert 0 < m.tasks <= m.events

    def test_every_scheduler_runs_the_same_tasks(self, smoke_run):
        # The rows share one seeded workload, and each task runs once.
        assert len({m.tasks for m in smoke_run[0].values()}) == 1

    def test_campaign_rate_is_trials_over_wall(self, smoke_run):
        campaign = smoke_run[1]
        assert campaign["preset"] == "smoke" and campaign["workers"] == 0
        assert campaign["trials"] > 0 and campaign["failures"] == 0
        assert campaign["trials_per_min"] == pytest.approx(
            campaign["trials"] / campaign["wall_s"] * 60.0
        )


class TestReportSchema:
    """``BENCH_engine.json`` holds provenance, one row per scenario and,
    when measured, the campaign throughput; nothing else."""

    PROVENANCE = ("benchmark", "version", "generated_at", "python", "machine")

    @pytest.mark.parametrize(
        "campaign", [None, {"trials": 4, "trials_per_min": 60.0}],
        ids=["scenarios-only", "with-campaign"],
    )
    def test_report_keys(self, tmp_path, campaign):
        doc = write_report(
            run_suite([tiny_scenario()], collect_cache_stats=False),
            tmp_path / "BENCH_engine.json",
            campaign_throughput=campaign,
        )
        expected = [*self.PROVENANCE, "scenarios"]
        if campaign is not None:
            expected.append("campaign_throughput")
        assert list(doc) == expected
        assert doc.get("campaign_throughput") == campaign

    def test_committed_report_matches_the_writer(self):
        doc = json.loads(
            (Path(__file__).parents[1] / "BENCH_engine.json").read_text()
        )
        assert set(doc) <= {*self.PROVENANCE, "scenarios", "campaign_throughput"}
        fields = [f.name for f in dataclasses.fields(PerfMeasurement)]
        assert doc["scenarios"]
        for row in doc["scenarios"]:
            assert list(row) == fields

    @pytest.mark.parametrize(
        "matrix_rate, shown", [(None, "-"), (0.25, "25%")],
        ids=["no-cache-stats", "cache-stats"],
    )
    def test_format_report_columns(self, matrix_rate, shown):
        (m,) = run_suite([tiny_scenario()], collect_cache_stats=False)
        m.frontier_matrix_hit_rate = matrix_rate
        header, row = format_report([m]).splitlines()
        assert header.split() == [
            "scenario", "wall_s", "events/s", "tasks/s", "select_ms",
            "matrix%",
        ]
        assert row.split()[0] == "tiny-fifo" and row.split()[-1] == shown


class TestCLI:
    def test_perf_smoke_writes_json(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        out = tmp_path / "bench.json"
        # Shrink the smoke grid further so the CLI test stays fast.
        monkeypatch.setattr(
            "repro.experiments.perf.smoke_scenarios",
            lambda: [tiny_scenario(name="smoke-tiny")],
        )
        assert main(["perf", "--smoke", "--output", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "smoke-tiny" in captured
        assert out.exists()
        assert json.loads(out.read_text())["scenarios"][0]["name"] == "smoke-tiny"
