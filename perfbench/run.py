"""The repository benchmark: one workload per invocation, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pcaps-batch --seed 0 --seconds 20 --trace 0

``--trace 0`` times the workload untraced for ``--seconds`` of measured work
and prints every end-to-end metric, with times normalized to a reference
machine speed (see ``bench_calibrate.py``); ``--trace 1`` alternates untraced and
traced repetitions of the workload's first unit and prints the per-layer
metrics (calls, self times, work counters, tracing overhead), writing the
first traced unit's spans as Chrome-trace JSON. Both modes check every
output (see ``bench_checks.py``). ``--held-out`` shifts the seed into a
range never used while the benchmark or a change is being developed, so a
claim can be re-checked on an unseen input.

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a human-readable report, also written with provenance to ``--out``
(default ``perfbench-out/``). The program is imported from ``src/`` of the checkout;
without it the benchmark exits with status 2 and prints no result.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

from bench_calibrate import REFERENCE_S, calibration_s  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: ``--held-out`` maps seed ``s`` to ``HELD_OUT_BASE + s``; development and
#: tuning use seeds below it.
HELD_OUT_BASE = 1_000_000
#: Fresh processes that each import the program and build the inputs;
#: ``setup_s`` is their median.
SETUP_PROBES = 5
#: Spans of the first traced unit written to the Chrome trace.
KEEP_SPANS = 50_000
#: Self times must account for the traced wall time to within this share.
COVERAGE_TOLERANCE = 0.10
#: Stop starting new units after this long, so a run always ends in time.
DEADLINE_S = 150.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "trial_s_p50": "s",
    "trial_s_tail": "s",
    "trials_per_min": "1/min",
    "events_per_s": "1/s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Wrapped layers, each reported as ``<layer>.calls`` and ``<layer>.self_s``.
LAYERS = (
    "engine.step",
    "engine.block",
    "state.frontier_arrays",
    "state.ready_stages",
    "state.has_assignable",
    "sched.select",
    "sched.score",
    "provision.quota",
    "provision.scale_parallelism",
    "trace.append",
    "stream.fold",
    "carbon.reading",
    "carbon.integrate",
    "carbon.tally",
    "workloads.synth",
    "service.epoch",
    "service.retire",
    "service.checkpoint",
    "campaign.dispatch",
    "campaign.trial",
    "campaign.trial_setup",
    "campaign.store.append",
    "campaign.store.read",
)

DERIVED_UNITS = {
    "engine.events": "count",
    "engine.deferrals": "count",
    "engine.blocked_per_select": "ratio",
    "state.frontier_rows_mean": "rows",
    "sched.selects_per_task": "ratio",
    "tasks": "count",
    "service.checkpoint.bytes": "bytes",
    "campaign.store.hit_ratio": "ratio",
    "bench.other.self_s": "s",
    "trace.wall_s": "s",
    "trace.coverage": "ratio",
    "tracing.overhead_frac": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update(DERIVED_UNITS)
    return units


# ----------------------------------------------------------------------
#: Tail percentile, reported once a run has enough samples that at least
#: ten lie beyond it. A fixed percentile (not the highest the sample count
#: allows) keeps runs with different trial counts comparable.
TAIL_PERCENTILE = 90
TAIL_MIN_SAMPLES = 100


def tail(samples: list[float]) -> tuple[int, float]:
    """``(percentile, value)``: the nearest-rank p90 from 100 samples on,
    else the median (too few samples for any percentile above it to have
    ten samples beyond)."""
    n = len(samples)
    if n < TAIL_MIN_SAMPLES:
        return 50, statistics.median(samples)
    ordered = sorted(samples)
    return TAIL_PERCENTILE, ordered[math.ceil(TAIL_PERCENTILE * n / 100) - 1]


def git_commit() -> str:
    """HEAD's SHA read from ``.git`` without running git, or ``unknown``."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """SHA-256 over ``src/`` (paths and contents), which identifies the
    measured code even in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args, seed: int) -> dict:
    import numpy

    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "held_out": args.held_out,
        "effective_seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
def setup_probes(args) -> list[dict]:
    """Set-up time of fresh processes (import plus input construction),
    each with a calibration measured right after it."""
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--setup-probe",
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--scale",
        args.scale,
        "--out",
        str(args.out),
    ]
    if args.held_out:
        command.append("--held-out")
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True
        )
        samples.append(json.loads(done.stdout.splitlines()[-1]))
    return samples


def normalized(sample, calibrations: list[float]):
    """``sample`` with its times rescaled to the reference machine speed,
    from the calibrations run just before and just after it."""
    factor = REFERENCE_S / statistics.fmean(calibrations)
    return replace(
        sample,
        wall_s=sample.wall_s * factor,
        trial_s=[t * factor for t in sample.trial_s],
        epoch_s=[t * factor for t in sample.epoch_s],
    )


def measure(workload, args, started: float) -> tuple[dict, dict, int, int, list]:
    """Untraced timing: units until ``--seconds`` of measured work, each
    bracketed by calibrations and normalized to the reference speed."""
    probes = setup_probes(args)
    workload.setup()
    raw_samples, samples = [], []
    calibrations = [calibration_s()]
    measured = 0.0
    while (measured < args.seconds or len(samples) < workload.min_units) and (
        time.perf_counter() - started < DEADLINE_S
    ):
        sample = workload.timed_unit(len(samples))
        calibrations.append(calibration_s())
        raw_samples.append(sample)
        samples.append(normalized(sample, calibrations[-2:]))
        measured += sample.wall_s
    trials = [t for s in samples for t in s.trial_s]
    tail_pct, tail_value = tail(trials)

    def rate(work) -> float:
        """Median over units of work per wall-second: a burst of machine
        noise slows a few units, not the whole estimate."""
        return statistics.median(work(s) / s.wall_s for s in samples)

    metrics = {
        "setup_s": statistics.median(
            p["setup_s"] * REFERENCE_S / p["calibration_s"] for p in probes
        ),
        "trial_s_p50": statistics.median(trials),
        "trial_s_tail": tail_value,
        "trials_per_min": rate(lambda s: len(s.trial_s)) * 60.0,
        "events_per_s": rate(lambda s: s.events),
        "jobs_per_s": rate(lambda s: s.jobs),
        "peak_rss_mb": peak_rss_mb(),
    }
    attempted = sum(s.attempted for s in samples)
    failed = sum(s.failed for s in samples)
    info = {
        "failed_frac": failed / attempted if attempted else 1.0,
        "raw_setup_s": statistics.median(p["setup_s"] for p in probes),
        "raw_trial_s_p50": statistics.median(t for s in raw_samples for t in s.trial_s),
        "calibration_s_p50": statistics.median(calibrations),
        "trial_samples": len(trials),
        "trial_s_tail_percentile": tail_pct,
        "measured_s": measured,
        "units": len(samples),
        "input_seeds": workload.input_seeds(len(samples)),
    }
    epochs = [e for s in samples for e in s.epoch_s]
    if epochs:
        epoch_pct, epoch_tail = tail(epochs)
        info.update(
            epoch_s_p50=statistics.median(epochs),
            epoch_s_tail=epoch_tail,
            epoch_s_tail_percentile=epoch_pct,
            epoch_samples=len(epochs),
        )
    quality = [q for s in samples for q in s.quality]
    if quality:
        info.update(
            pcaps_carbon_reduction_pct=statistics.fmean(q[0] for q in quality),
            pcaps_ect_increase_pct=statistics.fmean(q[1] for q in quality),
            quality_replicates=len(quality),
        )
    violations = [v for s in samples for v in s.violations]
    return metrics, info, attempted, failed, violations


def trace_layers(workload, args, started: float, seed: int, out: Path):
    """Traced run: untraced/traced pairs of the first unit."""
    from bench_trace import ROOT as ROOT_SPAN
    from bench_trace import SpanRecorder, traced

    workload.setup()
    untraced_walls, traced_walls, recorders = [], [], []
    summaries, violations = [], []
    attempted = failed = 0
    elapsed = 0.0
    while not recorders or (
        elapsed < args.seconds and time.perf_counter() - started < DEADLINE_S
    ):
        begin = time.perf_counter()
        outputs = workload.trace_unit()
        untraced_walls.append(time.perf_counter() - begin)
        _, found = workload.trace_summary(outputs)
        attempted += 1
        failed += bool(found)
        violations += found
        del outputs

        recorder = SpanRecorder(keep_spans=0 if recorders else KEEP_SPANS)
        outputs, wall = traced(workload.trace_unit, recorder)
        traced_walls.append(wall)
        counts, found = workload.trace_summary(outputs)
        coverage = recorder.total_self_s() / wall
        if abs(coverage - 1.0) > COVERAGE_TOLERANCE:
            found = found + [f"layer self times cover {coverage:.3f} of the traced wall"]
        attempted += 1
        failed += bool(found)
        violations += found
        del outputs
        recorders.append(recorder)
        summaries.append(counts)
        elapsed += untraced_walls[-1] + wall

    first = recorders[0]
    for recorder, counts in zip(recorders[1:], summaries[1:]):
        if recorder.calls != first.calls or counts != summaries[0]:
            violations.append("work counters differ between traced repetitions")
            failed += 1

    tables = [recorder.table() for recorder in recorders]

    def calls(layer: str) -> int:
        return tables[0].get(layer, {}).get("calls", 0)

    def self_s(layer: str) -> float:
        return statistics.median(t.get(layer, {}).get("self_s", 0.0) for t in tables)

    counts = summaries[0]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = calls(layer)
        metrics[f"{layer}.self_s"] = self_s(layer)
    selects = calls("sched.select")
    tasks = first.counters.get("tasks", 0)
    wall = statistics.median(traced_walls)
    metrics.update(
        {
            "engine.events": counts["events"],
            "engine.deferrals": counts["deferrals"],
            "engine.blocked_per_select": calls("engine.block") / selects if selects else 0.0,
            "state.frontier_rows_mean": (
                first.counters.get("state.frontier_rows", 0) / calls("state.frontier_arrays")
                if calls("state.frontier_arrays")
                else 0.0
            ),
            "sched.selects_per_task": selects / tasks if tasks else 0.0,
            "tasks": tasks,
            "service.checkpoint.bytes": first.counters.get("service.checkpoint.bytes", 0),
            "campaign.store.hit_ratio": counts.get("resume_hit_ratio", 0.0),
            "bench.other.self_s": self_s(ROOT_SPAN),
            "trace.wall_s": wall,
            "trace.coverage": statistics.median(
                r.total_self_s() / w for r, w in zip(recorders, traced_walls)
            ),
            "tracing.overhead_frac": wall / statistics.median(untraced_walls) - 1.0,
        }
    )
    chrome = out / f"{args.workload}-seed{seed}.trace.json"
    info = {
        "failed_frac": failed / attempted,
        "traced_units": len(recorders),
        "untraced_wall_s": statistics.median(untraced_walls),
        "input_seeds": workload.input_seeds(1),
        "layer_table": tables[0],
        "spans_written": first.write_chrome_trace(
            chrome,
            {"workload": args.workload, "seed": seed, "dropped": first.dropped_spans},
        ),
        "chrome_trace": str(chrome),
    }
    return metrics, info, attempted, failed, violations


# ----------------------------------------------------------------------
def format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def main(argv=None) -> int:
    from bench_workloads import FULL, TINY, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--held-out",
        action="store_true",
        help=f"use seed {HELD_OUT_BASE} + SEED, a range never used for tuning",
    )
    parser.add_argument(
        "--scale",
        choices=("full", "tiny"),
        default="full",
        help="input sizes: the benchmark's, or seconds-scale ones for its tests",
    )
    parser.add_argument(
        "--out", type=Path, default=ROOT / "perfbench-out", help="report directory"
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"benchmark: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    seed = HELD_OUT_BASE + args.seed if args.held_out else args.seed
    out = args.out.resolve()
    out.mkdir(parents=True, exist_ok=True)
    work_dir = out / f"work-{os.getpid()}"
    scale = TINY if args.scale == "tiny" else FULL
    workload = WORKLOADS[args.workload](seed, scale, work_dir)
    try:
        if args.setup_probe:
            workload.setup()
            setup_s = time.perf_counter() - _T0
            print(json.dumps({"setup_s": setup_s, "calibration_s": calibration_s()}))
            return 0
        started = time.perf_counter()
        if args.trace:
            metrics, info, attempted, failed, violations = trace_layers(
                workload, args, started, seed, out
            )
            units = per_layer_units()
        else:
            metrics, info, attempted, failed, violations = measure(workload, args, started)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    prov = provenance(args, seed)
    report = {
        "provenance": prov,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "info": info,
        "violations": violations[:50],
    }
    (out / f"{args.workload}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n"
    )

    print(
        f"{args.workload} seed={seed} commit={prov['commit'][:12]} "
        f"src={prov['source_sha256'][:12]} python={prov['python']} "
        f"numpy={prov['numpy']} nproc={prov['nproc']}"
    )
    for name, unit in units.items():
        print(f"  {name:<34} {format_value(metrics[name]):>14} {unit}")
    for name, value in info.items():
        if name != "layer_table":
            print(f"  {name:<34} {format_value(value):>14}")
    for violation in violations[:10]:
        print(f"  VIOLATION {violation}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": report["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
