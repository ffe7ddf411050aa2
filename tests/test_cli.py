"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_run_parses_schedulers(self):
        args = build_parser().parse_args(
            ["run", "fifo", "pcaps", "--grid", "CAISO", "--jobs", "3"]
        )
        assert args.schedulers == ["fifo", "pcaps"]
        assert args.grid == "CAISO"

    def test_sweep_requires_knob(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep"])

    def test_invalid_grid_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fifo", "--grid", "MARS"])


class TestCommands:
    def test_grids(self, capsys):
        assert main(["grids"]) == 0
        out = capsys.readouterr().out
        assert "CAISO" in out and "coal" in out

    def test_table1(self, capsys):
        assert main(["table1", "--hours", "500"]) == 0
        out = capsys.readouterr().out
        assert "paper-mean" in out

    def test_fig1(self, capsys):
        assert main(["fig1", "--gamma", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "T-OPT" in out and "C-OPT" in out

    def test_run_small_matchup(self, capsys):
        code = main(
            [
                "run", "fifo", "pcaps",
                "--jobs", "3", "--executors", "4", "--seed", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pcaps" in out and "carbon_red%" in out

    def test_run_unknown_scheduler(self, capsys):
        assert main(["run", "not-a-scheduler", "--jobs", "2"]) == 2
        captured = capsys.readouterr()
        assert "unknown schedulers" in captured.err
        assert captured.out == ""

    def test_run_adds_baseline_if_missing(self, capsys):
        code = main(
            [
                "run", "pcaps", "--baseline", "decima",
                "--jobs", "3", "--executors", "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "decima" in out

    def test_sweep_gamma(self, capsys):
        code = main(
            [
                "sweep", "gamma", "--values", "0.2", "0.8",
                "--jobs", "3", "--executors", "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "0.20" in out and "0.80" in out

    def test_sweep_b(self, capsys):
        code = main(
            [
                "sweep", "B", "--values", "2", "4",
                "--jobs", "3", "--executors", "4", "--baseline", "fifo",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2.00" in out


class TestCampaignCommands:
    def test_campaign_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign"])

    def test_campaign_list(self, capsys):
        assert main(["campaign", "list"]) == 0
        out = capsys.readouterr().out
        assert "demo" in out and "table3" in out and "fig18-19" in out

    def test_campaign_unknown_name(self, capsys):
        assert main(["campaign", "run", "not-a-campaign"]) == 2
        assert "unknown campaign" in capsys.readouterr().err

    def test_campaign_report_without_store(self, tmp_path, capsys):
        store = str(tmp_path / "never-written.jsonl")
        assert main(["campaign", "report", "smoke", "--store", store]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_campaign_resume_without_store(self, tmp_path, capsys):
        store = str(tmp_path / "never-written.jsonl")
        assert main(["campaign", "resume", "smoke", "--store", store]) == 2
        assert "nothing to resume" in capsys.readouterr().err

    def test_campaign_run_rerun_and_report(self, tmp_path, capsys):
        store = str(tmp_path / "smoke.jsonl")
        base = ["campaign", "run", "smoke", "--store", store, "--workers", "0"]

        assert main(base) == 0
        first = capsys.readouterr().out
        assert "4 simulated, 0 cached" in first
        assert "cache hit rate 0.0%" in first

        assert main(base + ["--quiet"]) == 0
        rerun = capsys.readouterr().out
        assert "0 simulated, 4 cached" in rerun
        assert "cache hit rate 100.0%" in rerun

        assert main(["campaign", "report", "smoke", "--store", store]) == 0
        report = capsys.readouterr().out
        assert "4/4 trials in store" in report
        # The report from the store alone matches the table the run printed.
        assert report.strip().splitlines()[-1] in rerun

    @pytest.mark.parametrize(
        "argv",
        [
            ["campaign", "run", "smoke"],
            ["geo", "sweep", "geo-smoke"],
            ["disrupt", "sweep"],
            ["stream", "sweep", "stream-smoke"],
        ],
        ids=["campaign-run", "geo-sweep", "disrupt-sweep", "stream-sweep"],
    )
    def test_interrupt_exits_130(self, argv, tmp_path, monkeypatch, capsys):
        """Ctrl-C during any campaign entry point: the drained store is
        kept, one ``interrupted:`` line is printed, exit status 130."""
        from repro.campaign import CampaignInterrupted, CampaignRunner

        def interrupted(self, spec, resume=True, on_progress=None):
            raise CampaignInterrupted(completed=1, pending=1)

        monkeypatch.setattr(CampaignRunner, "run", interrupted)
        store = str(tmp_path / "s.jsonl")
        assert main([*argv, "--store", store, "--workers", "0"]) == 130
        assert "interrupted: campaign interrupted" in capsys.readouterr().out

    def test_campaign_commands_take_every_kind(self, tmp_path, capsys):
        assert main(["campaign", "list"]) == 0
        listing = capsys.readouterr().out
        assert "geo-sweep       federation" in listing
        assert "stream-steady   stream" in listing
        store = str(tmp_path / "geo.jsonl")
        assert main(["geo", "sweep", "geo-smoke", "--store", store, "--quiet"]) == 0
        swept = capsys.readouterr().out
        assert main(["campaign", "report", "geo-smoke", "--store", store]) == 0
        report = capsys.readouterr().out
        assert "2/2 trials in store, baseline round-robin" in report
        assert report.strip().splitlines()[-1] in swept

    def test_resize_flags_apply_to_scheduler_presets_only(self, capsys):
        assert main(["campaign", "run", "stream-smoke", "--jobs", "3"]) == 2
        assert "scheduler presets only" in capsys.readouterr().err


class TestObsCommands:
    def test_obs_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs"])

    def test_obs_subcommands_are_report_and_dashboard(self):
        (obs_sub,) = [
            a for a in build_parser()._actions
            if a.__class__.__name__ == "_SubParsersAction"
        ]
        (sub,) = [
            a for a in obs_sub.choices["obs"]._actions
            if a.__class__.__name__ == "_SubParsersAction"
        ]
        assert set(sub.choices) == {"report", "dashboard"}

    def test_obs_regress_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["obs", "regress"])
        assert exc.value.code == 2
        assert "invalid choice: 'regress'" in capsys.readouterr().err

    def test_log_level_flag_parses(self):
        args = build_parser().parse_args(["--log-level", "debug", "grids"])
        assert args.log_level == "debug"

    def test_obs_flag_writes_artifacts(self, tmp_path, capsys):
        import json

        obs_dir = tmp_path / "obs"
        code = main(
            [
                "run", "fifo", "--jobs", "3", "--executors", "4",
                "--obs", "--obs-dir", str(obs_dir),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "obs: wrote" in captured.err
        metrics = obs_dir / "metrics.jsonl"
        trace = obs_dir / "trace.json"
        assert metrics.exists() and trace.exists()
        doc = json.loads(trace.read_text())
        assert any(e.get("ph") == "X" for e in doc["traceEvents"])

    def test_obs_report_renders_snapshot(self, tmp_path, capsys):
        obs_dir = tmp_path / "obs"
        main(
            [
                "run", "fifo", "--jobs", "3", "--executors", "4",
                "--obs", "--obs-dir", str(obs_dir),
            ]
        )
        capsys.readouterr()
        code = main(
            ["obs", "report", "--metrics", str(obs_dir / "metrics.jsonl")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "engine.events.task_done" in out
        assert "obs snapshot" in out

    def test_obs_report_missing_snapshot(self, tmp_path, capsys):
        missing = str(tmp_path / "nope" / "metrics.jsonl")
        assert main(["obs", "report", "--metrics", missing]) == 2
        assert "no metrics snapshot" in capsys.readouterr().err

    def test_obs_dashboard_builds_html(self, tmp_path, capsys):
        output = tmp_path / "dash" / "index.html"
        code = main(
            [
                "obs", "dashboard", "--output", str(output),
                "--bench", "--store", "--obs-dir",
            ]
        )
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        text = output.read_text()
        assert text.startswith("<!DOCTYPE html>")
        assert "repro dashboard" in text

    def test_obs_dashboard_marks_a_non_object_bench_unreadable(
        self, tmp_path, capsys
    ):
        bench = tmp_path / "BENCH_list.json"
        bench.write_text("[1, 2]")
        output = tmp_path / "index.html"
        code = main(
            [
                "obs", "dashboard", "--output", str(output),
                "--bench", str(bench), "--store", "--obs-dir",
            ]
        )
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        assert "unreadable: expected a JSON object, got list" in (
            output.read_text()
        )

    def test_obs_report_empty_directory(self, tmp_path, capsys):
        """A directory argument resolves the conventional snapshot name —
        and fails cleanly when the directory holds none."""
        empty = tmp_path / "obs"
        empty.mkdir()
        assert main(["obs", "report", "--metrics", str(empty)]) == 2
        err = capsys.readouterr().err
        assert "no metrics snapshot" in err and "metrics.jsonl" in err

    def test_obs_report_corrupt_snapshot(self, tmp_path, capsys):
        bad = tmp_path / "metrics.jsonl"
        bad.write_text("{definitely not json\n")
        assert main(["obs", "report", "--metrics", str(bad)]) == 2
        assert "unreadable metrics snapshot" in capsys.readouterr().err

    def test_obs_dashboard_named_obs_dir_must_exist(self, tmp_path, capsys):
        empty = tmp_path / "obs"
        empty.mkdir()
        code = main(
            [
                "obs", "dashboard",
                "--output", str(tmp_path / "index.html"),
                "--obs-dir", str(empty),
            ]
        )
        assert code == 2
        assert "has no metrics.jsonl" in capsys.readouterr().err


class TestStreamObsCommand:
    def test_stream_run_obs_writes_service_gauges(self, tmp_path, capsys):
        from repro.obs.metrics import read_jsonl

        obs_dir = tmp_path / "obs"
        code = main(
            [
                "stream", "run", "--jobs", "4", "--seed", "1",
                "--epoch-events", "64", "--quiet",
                "--obs", "--obs-dir", str(obs_dir),
            ]
        )
        assert code == 0
        assert "obs: wrote" in capsys.readouterr().err
        _meta, rows = read_jsonl(obs_dir / "metrics.jsonl")
        gauges = {r["name"]: r["value"] for r in rows if r["type"] == "gauge"}
        assert gauges["stream.jobs_completed"] == 4
