"""Engine throughput: the fast-path simulation engine regression gate.

Unlike the per-figure benches (which regenerate paper artifacts), this one
times the engine itself: complete trials across a scheduler × job-count
grid, reporting events/s, tasks/s, and Fig. 20-style select latency. The
measurements are written to ``BENCH_engine.json`` so successive PRs can
diff engine throughput.

The gate is on work counters, which repeat exactly on every machine: the
200-job Decima+PCAPS trial must make at most one scheduler select per
task (PCAPS masks stages at their parallelism limit ``P'`` out of its
draw, so no select is spent on a stage that cannot grow), and no trial
may build more cluster views than it takes scheduling steps (the engine
advances one view per step in place).

Re-recording the gate after an intentional engine change: see
``docs/benchmarks.md`` ("Re-recording the perf gate").
"""

from repro.experiments.perf import (
    build_scenarios,
    format_report,
    run_suite,
    write_report,
)

from _report import emit, run_once


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

    # Every trial completes and produces work at a sane rate.
    for m in measurements:
        assert m.tasks > 0 and m.events > 0 and m.wall_s > 0
        assert 0 < m.views <= m.steps, (m.name, m.views, m.steps)
    by_name = {m.name: m for m in measurements}
    pcaps = by_name["pcaps-200"]
    benchmark.extra_info["gate"] = {
        "pcaps_200_selects_per_task": round(pcaps.select_calls / pcaps.tasks, 3),
    }
    assert pcaps.select_calls <= pcaps.tasks

