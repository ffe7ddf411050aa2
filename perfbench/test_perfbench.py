"""Tests of the benchmark itself: tiny-scale runs, the output checker, and
the agreement between ``BENCHMARK.json`` and what the benchmark emits.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import inspect
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import bench_trace  # noqa: E402
import run  # noqa: E402
from bench_checks import check_campaign, check_schedule, check_stream  # noqa: E402
from bench_workloads import TINY, WORKLOADS, PcapsBatch  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(tmp_path, *args: str, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_emits_every_metric_with_its_unit(tmp_path, workload, trace):
    done = run_benchmark(
        tmp_path,
        "--workload", workload,
        "--seed", "3",
        "--seconds", "0.01",
        "--trace", trace,
        "--scale", "tiny",
        "--out", str(tmp_path),
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    report = json.loads(
        (tmp_path / f"{workload}-seed3-trace{trace}.json").read_text()
    )
    assert report["provenance"]["effective_seed"] == 3
    assert {"commit", "python", "numpy", "nproc"} <= set(report["provenance"])
    if trace == "1":
        assert report["info"]["spans_written"] > 0
        assert abs(result["metrics"]["trace.coverage"]["value"] - 1) <= 0.10
    assert not list(tmp_path.glob("work-*"))


def test_benchmark_json_names_the_workloads_and_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == (
        run.END_TO_END_UNITS
    )
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == (
        run.per_layer_units()
    )
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_layer_map_names_declared_metrics():
    reference = json.loads((HERE / "reference.json").read_text())
    per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]} | {
        "epoch_s_p50", "epoch_s_tail", "failed_frac",
        "pcaps_carbon_reduction_pct", "pcaps_ect_increase_pct",
    }
    for entry in reference["layer_map"]:
        assert set(entry["metrics"]) <= per_layer, entry
        for target in entry["moves"]:
            assert target["metric"] in end_to_end, entry
            assert target["workload"] in WORKLOADS, entry
    for workload, counters in reference["counters"].items():
        assert workload in WORKLOADS
        assert set(counters) <= per_layer


def test_exits_nonzero_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_benchmark(
        tmp_path, "--workload", "pcaps-batch", "--seed", "0", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


# -- the output checker ---------------------------------------------------
@pytest.fixture(scope="module")
def tiny_schedule():
    sys.path.insert(0, str(ROOT / "src"))
    workload = PcapsBatch(0, TINY, Path("unused"))
    sim, submissions, trace = workload.build_inputs(workload.config(0))
    result, carbon = workload.run_trial(sim, submissions)
    return result.trace, submissions, trace, carbon


def _with_tasks(schedule, tasks):
    trace, submissions, carbon_trace, carbon = schedule
    return replace(trace, tasks=tasks), submissions, carbon_trace, carbon


def test_checker_accepts_a_real_schedule(tiny_schedule):
    assert check_schedule(*tiny_schedule) == []


def test_checker_catches_an_overlapping_executor(tiny_schedule):
    tasks = list(tiny_schedule[0].tasks)
    first = tasks[0]
    i, other = next(
        (i, t)
        for i, t in enumerate(tasks)
        if t.executor_id != first.executor_id
        and t.start < first.end
        and first.start < t.end
    )
    tasks[i] = replace(other, executor_id=first.executor_id)
    found = check_schedule(*_with_tasks(tiny_schedule, tasks))
    assert any(f"executor {first.executor_id} overlaps" in v for v in found)


def test_checker_catches_a_precedence_break(tiny_schedule):
    trace, submissions, _, _ = tiny_schedule
    dags = {sub.job_id: sub.dag for sub in submissions}
    tasks = list(trace.tasks)
    i, child = next(
        (i, t) for i, t in enumerate(tasks) if dags[t.job_id].parents(t.stage_id)
    )
    parent = dags[child.job_id].parents(child.stage_id)[0]
    parent_start = min(
        t.start for t in tasks if (t.job_id, t.stage_id) == (child.job_id, parent)
    )
    tasks[i] = replace(child, start=parent_start, work_start=parent_start)
    found = check_schedule(*_with_tasks(tiny_schedule, tasks))
    assert any(f"before parent stage {parent} ends" in v for v in found)


def test_checker_catches_duplicate_tasks_and_a_wrong_carbon_total(tiny_schedule):
    trace, submissions, carbon_trace, carbon = tiny_schedule
    doubled = replace(trace, tasks=list(trace.tasks) + [trace.tasks[-1]])
    assert any("ran 2 times" in v for v in check_schedule(
        doubled, submissions, carbon_trace, carbon
    ))
    assert any("carbon tally" in v for v in check_schedule(
        trace, submissions, carbon_trace, carbon * 1.001
    ))


def test_stream_and_campaign_checks_flag_incomplete_runs():
    from types import SimpleNamespace

    report = SimpleNamespace(
        jobs_completed=9, open_tasks=1, jobs_active=1, drained=False,
        epochs=4, checkpoints_written=2,
    )
    assert len(check_stream(report, max_jobs=10, checkpoint_every=2)) == 3

    record = SimpleNamespace(key="k", ok=True, metrics={"ect": 1.0})
    cold = SimpleNamespace(failures=[], records=[record])
    warm = SimpleNamespace(stats=SimpleNamespace(hits=0, misses=1), records=[])
    found = check_campaign(cold, warm, num_trials=1)
    assert any("resume pass hit 0 of 1" in v for v in found)


# -- tracing and statistics -------------------------------------------------
def test_tracing_restores_every_wrapped_attribute():
    sys.path.insert(0, str(ROOT / "src"))
    before = [
        (owner, attr, inspect.getattr_static(owner, attr))
        for owner, attr, *_ in bench_trace.layer_targets()
    ]
    with bench_trace.LayerTracing(bench_trace.SpanRecorder()):
        assert any(
            inspect.getattr_static(owner, attr) is not original
            for owner, attr, original in before
        )
    for owner, attr, original in before:
        assert inspect.getattr_static(owner, attr) is original


def test_span_self_times_add_up_to_the_root():
    recorder = bench_trace.SpanRecorder(keep_spans=10)
    outer, inner = recorder.name_id("outer"), recorder.name_id("inner")
    recorder.open(outer)
    for _ in range(3):
        recorder.open(inner)
        recorder.close()
    recorder.close()
    table = recorder.table()
    assert table["inner"]["calls"] == 3 and table["outer"]["calls"] == 1
    root_span = max(
        range(4), key=lambda i: recorder._span_end[i] - recorder._span_start[i]
    )
    root_duration = recorder._span_end[root_span] - recorder._span_start[root_span]
    assert recorder.total_self_s() == pytest.approx(root_duration)


@pytest.mark.parametrize("n, percentile", [(5, 50), (99, 50), (100, 90), (144, 90), (432, 90)])
def test_tail_leaves_ten_samples_beyond(n, percentile):
    samples = [float(i) for i in range(n)]
    got, value = run.tail(samples)
    assert got == percentile
    if percentile > 50:
        assert sum(1 for s in samples if s > value) >= 10
