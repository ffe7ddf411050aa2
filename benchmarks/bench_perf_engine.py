"""Engine throughput: the fast-path simulation engine regression gate.

Unlike the per-figure benches (which regenerate paper artifacts), this one
times the engine itself: complete trials across a scheduler × job-count
grid, reporting events/s, tasks/s, and Fig. 20-style select latency. The
measurements are written to ``BENCH_engine.json`` so successive PRs can
diff engine throughput.

The gate is on work counters, which repeat exactly on every machine: the
200-job Decima+PCAPS trial must make no blocked retries (PCAPS masks
stages at their parallelism limit ``P'`` out of its draw) and at most one
scheduler select per task, and no trial may build more cluster views
than it takes scheduling steps (the engine advances one view per step in
place). The speedup against the pre-refactor wall
times (commit 50c23a5) is reported, not asserted: that baseline was
recorded on another machine.

Re-recording the gate after an intentional engine change: see
``docs/benchmarks.md`` ("Re-recording the perf gate").
"""

from repro.experiments.perf import (
    PRE_REFACTOR_BASELINE_S,
    build_scenarios,
    format_report,
    run_suite,
    write_report,
)

from _report import emit, run_once

#: fifo-200 wall seconds on the post-refactor engine, measured on the same
#: container as PRE_REFACTOR_BASELINE_S — the machine-speed calibration
#: anchor for the reported pcaps-200 speedup.
POST_REFACTOR_FIFO_200_S = 0.114


def test_engine_throughput(benchmark):
    scenarios = build_scenarios(
        schedulers=("fifo", "decima", "pcaps"), job_counts=(50, 100, 200)
    )
    measurements = run_once(benchmark, run_suite, scenarios)
    emit("Engine throughput — BENCH_engine", format_report(measurements).splitlines())
    write_report(measurements, "BENCH_engine.json")

    benchmark.extra_info["events_per_s"] = {
        m.name: round(m.events_per_s) for m in measurements
    }
    benchmark.extra_info["speedup"] = {
        m.name: m.speedup_vs_pre_refactor
        for m in measurements
        if m.speedup_vs_pre_refactor is not None
    }

    # Every trial completes and produces work at a sane rate.
    for m in measurements:
        assert m.tasks > 0 and m.events > 0 and m.wall_s > 0
        assert 0 < m.views <= m.steps, (m.name, m.views, m.steps)
    by_name = {m.name: m for m in measurements}
    pcaps = by_name["pcaps-200"]
    # Reported only: the pre-refactor baseline rescaled by this machine's
    # fifo-200 wall (same event loop, barely touched by PCAPS costs).
    machine_scale = by_name["fifo-200"].wall_s / POST_REFACTOR_FIFO_200_S
    benchmark.extra_info["gate"] = {
        "pcaps_200_blocked_retries": pcaps.blocked_retries,
        "pcaps_200_selects_per_task": round(pcaps.select_calls / pcaps.tasks, 3),
        "pcaps_200_speedup_rescaled": round(
            PRE_REFACTOR_BASELINE_S["pcaps-200"] * machine_scale / pcaps.wall_s,
            2,
        ),
    }
    assert pcaps.blocked_retries == 0
    assert pcaps.select_calls <= pcaps.tasks

