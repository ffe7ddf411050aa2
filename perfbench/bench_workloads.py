"""The three benchmark workloads: inputs from a seed, timed units, checks.

Every workload is offline (it runs as fast as it can) and reports work per
wall-second at the input size stated here. The program only ever receives
generated inputs — :class:`ExperimentConfig`, :class:`WorkloadSpec`,
:class:`StreamSpec`, :class:`CampaignSpec` — and is driven through its
public entry points; nothing here reaches into ``src/`` internals.

A workload exposes:

- ``setup()`` — build the inputs (the work ``setup_s`` times);
- ``timed_unit(i)`` — run unit ``i`` untraced, time it, check its output;
- ``trace_unit()`` — run the first unit *including its set-up* and return
  its raw outputs (the traced run wraps this in layer spans);
- ``trace_summary(outputs)`` — the program's own counters for that unit
  and the check violations, computed after tracing is switched off.

Files a workload writes (stream checkpoints, campaign stores) go under the
``work_dir`` it is given, which the caller removes when the run ends.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

from bench_checks import check_campaign, check_schedule, check_stream

TABLE3_SCHEDULERS = (
    "fifo",
    "weighted-fair",
    "decima",
    "greenhadoop",
    "cap-fifo",
    "cap-weighted-fair",
    "cap-decima",
    "pcaps",
)
#: Table 3's trace offsets ("uniformly random start times", fixed for replay).
TRACE_OFFSETS = (0, 977, 1954)


@dataclass(frozen=True)
class Scale:
    """Input sizes. :data:`FULL` is the benchmark; :data:`TINY` the tests."""

    batch_jobs: int = 200
    batch_executors: int = 50
    batch_trace_hours: int = 2000
    stream_jobs: int = 1500
    stream_executors: int = 16
    stream_epoch_events: int = 4096
    stream_checkpoint_every: int = 2
    campaign_jobs: int = 25
    campaign_executors: int = 40
    campaign_grids: tuple[str, ...] | None = None  # None: every Table 1 grid
    #: Cycles whose PCAPS-vs-FIFO comparisons form the quality metrics, so
    #: those stay a pure function of the seed however fast the machine is.
    quality_cycles: int = 2


FULL = Scale()
TINY = Scale(
    batch_jobs=6,
    batch_executors=6,
    batch_trace_hours=200,
    stream_jobs=30,
    stream_executors=4,
    stream_epoch_events=64,
    campaign_jobs=3,
    campaign_executors=6,
    campaign_grids=("DE",),
    quality_cycles=1,
)


@dataclass
class Sample:
    """What one timed unit measured."""

    wall_s: float
    trial_s: list[float]
    events: int
    jobs: int
    attempted: int
    failed: int
    violations: list[str] = field(default_factory=list)
    epoch_s: list[float] = field(default_factory=list)
    #: (carbon reduction %, ECT increase %) per PCAPS-vs-FIFO replicate.
    quality: list[tuple[float, float]] = field(default_factory=list)


class _Seeded:
    """Input seeds: unit ``i`` of a run with seed ``s`` uses ``stride·s + i``,
    so runs with different seeds never share inputs."""

    seed_stride = 1000
    min_units = 1

    def unit_seed(self, i: int) -> int:
        return self.seed * self.seed_stride + i

    def input_seeds(self, units: int) -> list[int]:
        return [self.unit_seed(i) for i in range(units)]


# ----------------------------------------------------------------------
class PcapsBatch(_Seeded):
    name = "pcaps-batch"
    why = (
        "Decima+PCAPS on 200-job TPC-H batches: the scheduler path (selects, "
        "blocked retries, frontier arrays) does most of the work"
    )

    def __init__(self, seed: int, scale: Scale, work_dir: Path) -> None:
        self.seed = seed
        self.scale = scale
        self.inputs: dict[int, tuple] = {}

    def config(self, i: int):
        from repro.experiments.runner import ExperimentConfig
        from repro.workloads.batch import WorkloadSpec

        return ExperimentConfig(
            scheduler="pcaps",
            gamma=0.5,
            grid="DE",
            num_executors=self.scale.batch_executors,
            workload=WorkloadSpec(
                family="tpch",
                num_jobs=self.scale.batch_jobs,
                mean_interarrival=30.0,
            ),
            trace_hours=self.scale.batch_trace_hours,
            seed=self.unit_seed(i),
            measure_latency=False,
        )

    @staticmethod
    def build_inputs(config) -> tuple:
        """Trace synthesis, workload synthesis, scheduler construction."""
        from repro.carbon.grids import synthesize_trace
        from repro.experiments import runner
        from repro.workloads import batch

        trace = synthesize_trace(config.grid, seed=0).slice(
            config.trace_start_step, config.trace_hours
        )
        submissions = batch.build_workload(config.workload, seed=config.seed)
        sim = runner.simulation_for(config, carbon_trace=trace)
        return sim, submissions, trace

    def setup(self) -> None:
        self.inputs[0] = self.build_inputs(self.config(0))

    @staticmethod
    def run_trial(sim, submissions):
        result = sim.run(submissions)
        return result, result.carbon_footprint

    def timed_unit(self, i: int) -> Sample:
        sim, submissions, trace = self.inputs.pop(i, None) or self.build_inputs(
            self.config(i)
        )
        start = perf_counter()
        result, carbon = self.run_trial(sim, submissions)
        wall = perf_counter() - start
        violations = check_schedule(result.trace, submissions, trace, carbon)
        return Sample(
            wall_s=wall,
            trial_s=[wall],
            events=result.events_processed,
            jobs=len(submissions),
            attempted=1,
            failed=1 if violations else 0,
            violations=violations,
        )

    def trace_unit(self):
        sim, submissions, trace = self.build_inputs(self.config(0))
        result, carbon = self.run_trial(sim, submissions)
        return result, carbon, submissions, trace

    def trace_summary(self, outputs) -> tuple[dict, list[str]]:
        result, carbon, submissions, trace = outputs
        counts = {
            "events": result.events_processed,
            "deferrals": result.trace.deferrals,
            "jobs": len(submissions),
        }
        return counts, check_schedule(result.trace, submissions, trace, carbon)


# ----------------------------------------------------------------------
class FifoStream(_Seeded):
    name = "fifo-stream"
    why = (
        "FIFO service mode on a Poisson TPC-H stream: event drain, tuple "
        "frontier, streaming fold, checkpoints; the scheduler does little"
    )

    def __init__(self, seed: int, scale: Scale, work_dir: Path) -> None:
        self.seed = seed
        self.scale = scale
        self.checkpoint_dir = work_dir / "stream-ckpt"

    def config(self, i: int):
        from repro.experiments.runner import ExperimentConfig
        from repro.stream import ServiceConfig
        from repro.workloads.stream import StreamSpec

        stream_seed = self.unit_seed(i)
        return ServiceConfig(
            experiment=ExperimentConfig(
                scheduler="fifo",
                num_executors=self.scale.stream_executors,
                seed=stream_seed,
            ),
            stream=StreamSpec(
                family="tpch",
                mean_interarrival=30.0,
                tpch_scales=(2,),
                seed=stream_seed,
                max_jobs=self.scale.stream_jobs,
            ),
            window_s=3600.0,
            epoch_events=self.scale.stream_epoch_events,
            checkpoint_every_epochs=self.scale.stream_checkpoint_every,
            checkpoint_dir=str(self.checkpoint_dir),
        )

    def build_runner(self, i: int, on_epoch=None):
        from repro.stream import ServiceRunner

        self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        return ServiceRunner(self.config(i), on_epoch=on_epoch)

    def setup(self) -> None:
        self.build_runner(0)

    def timed_unit(self, i: int) -> Sample:
        epochs: list[float] = []
        full_epoch = self.scale.stream_epoch_events
        last = [0.0, 0]

        def on_epoch(runner) -> None:
            now = perf_counter()
            events = runner.stepper.events_processed
            if events - last[1] >= full_epoch:
                epochs.append(now - last[0])
            last[0], last[1] = now, events

        runner = self.build_runner(i, on_epoch=on_epoch)
        start = last[0] = perf_counter()
        report = runner.run()
        wall = perf_counter() - start
        violations = self.check(report)
        return Sample(
            wall_s=wall,
            trial_s=[wall],
            events=report.events_processed,
            jobs=report.jobs_completed,
            attempted=1,
            failed=1 if violations else 0,
            violations=violations,
            epoch_s=epochs,
        )

    def check(self, report) -> list[str]:
        return check_stream(
            report, self.scale.stream_jobs, self.scale.stream_checkpoint_every
        )

    def trace_unit(self):
        runner = self.build_runner(0)
        return runner, runner.run()

    def trace_summary(self, outputs) -> tuple[dict, list[str]]:
        runner, report = outputs
        counts = {
            "events": report.events_processed,
            "deferrals": runner.aggregator.deferrals,
            "jobs": report.jobs_completed,
        }
        return counts, self.check(report)


# ----------------------------------------------------------------------
class CampaignMix(_Seeded):
    name = "campaign-mix"
    seed_stride = 100
    why = (
        "cold Table-3-shaped campaign (8 schedulers x 6 grids) into a fresh "
        "store, then a resume pass: per-trial set-up, CAP/GreenHadoop, store"
    )

    def __init__(self, seed: int, scale: Scale, work_dir: Path) -> None:
        from repro.campaign import campaign_presets
        from repro.carbon.grids import GRID_CODES

        self.seed = seed
        self.scale = scale
        self.work_dir = work_dir
        table3 = campaign_presets()["table3"]
        self.base = replace(
            table3.base,
            num_executors=scale.campaign_executors,
            workload=replace(table3.base.workload, num_jobs=scale.campaign_jobs),
        )
        self.grids = scale.campaign_grids or GRID_CODES
        # Three cycles give the 144 trials the p90 tail needs, and include
        # the quality cycles.
        self.min_units = max(3, scale.quality_cycles)

    def spec(self, cycle: int):
        from repro.campaign.spec import CampaignSpec

        return CampaignSpec(
            f"bench-mix-{self.seed}-{cycle}",
            replace(self.base, seed=self.unit_seed(cycle)),
            axes={
                "scheduler": TABLE3_SCHEDULERS,
                "grid": self.grids,
                "trace_start_step": (TRACE_OFFSETS[cycle % len(TRACE_OFFSETS)],),
            },
            baseline="fifo",
        )

    def setup(self) -> None:
        from repro.experiments import runner

        for grid in self.grids:
            runner.carbon_trace_for(replace(self.base, grid=grid))
        self.spec(0).trials()

    def run_cycle(self, cycle: int, on_progress=None):
        """A cold pass and a resume pass over a fresh store. A pass-through
        hook on the campaign's trial funnel keeps each trial's result, so
        its schedule can be checked after the pass."""
        from repro.campaign import CampaignRunner, ResultStore, executor

        spec = self.spec(cycle)
        store_path = self.work_dir / f"campaign-{cycle}.jsonl"
        store_path.unlink(missing_ok=True)
        store = ResultStore(store_path)
        original = executor.execute_trial
        captured = []

        def execute_trial(config, carbon_trace=None):
            result = original(config, carbon_trace=carbon_trace)
            captured.append((config, result))
            return result

        executor.execute_trial = execute_trial
        try:
            cold = CampaignRunner(store, workers=0).run(spec, on_progress=on_progress)
            warm = CampaignRunner(store, workers=0).run(spec)
        finally:
            executor.execute_trial = original
            store_path.unlink(missing_ok=True)
        return spec, cold, warm, captured

    def check(self, spec, cold, warm, captured) -> tuple[list[list[str]], list[str]]:
        """(violations per executed trial, campaign-level violations)."""
        from repro.experiments.runner import workload_for

        per_trial = [
            check_schedule(
                result.trace,
                workload_for(config),
                result.carbon_trace,
                result.carbon_footprint,
            )
            for config, result in captured
        ]
        return per_trial, check_campaign(cold, warm, spec.num_trials())

    @staticmethod
    def quality(cold) -> list[tuple[float, float]]:
        """PCAPS vs FIFO on identical replicates, as in Table 3."""
        by_replicate: dict[tuple, dict[str, object]] = {}
        for record in cold.ok_records:
            replicate = (
                record.config["grid"],
                record.config["trace_start_step"],
                record.config["seed"],
            )
            by_replicate.setdefault(replicate, {})[record.scheduler_name] = record
        out = []
        for pair in by_replicate.values():
            if "fifo" in pair and "pcaps" in pair:
                fifo, pcaps = pair["fifo"], pair["pcaps"]
                out.append(
                    (
                        100.0 * (1.0 - pcaps.carbon_footprint / fifo.carbon_footprint),
                        100.0 * (pcaps.ect / fifo.ect - 1.0),
                    )
                )
        return out

    def timed_unit(self, i: int) -> Sample:
        trial_s: list[float] = []
        last = [0.0]

        def on_progress(done, total, line) -> None:
            now = perf_counter()
            trial_s.append(now - last[0])
            last[0] = now

        start = last[0] = perf_counter()
        spec, cold, warm, captured = self.run_cycle(i, on_progress=on_progress)
        wall = perf_counter() - start
        per_trial, campaign_level = self.check(spec, cold, warm, captured)
        violations = [v for found in per_trial for v in found] + campaign_level
        attempted = len(cold.records)
        failed = min(
            attempted, sum(1 for found in per_trial if found) + len(campaign_level)
        )
        return Sample(
            wall_s=wall,
            trial_s=trial_s,
            events=sum(result.events_processed for _, result in captured),
            jobs=sum(result.num_jobs for _, result in captured),
            attempted=attempted,
            failed=failed,
            violations=violations,
            quality=self.quality(cold) if i < self.scale.quality_cycles else [],
        )

    def trace_unit(self):
        return self.run_cycle(0)

    def trace_summary(self, outputs) -> tuple[dict, list[str]]:
        spec, cold, warm, captured = outputs
        per_trial, campaign_level = self.check(spec, cold, warm, captured)
        lookups = warm.stats.hits + warm.stats.misses
        counts = {
            "events": sum(result.events_processed for _, result in captured),
            "deferrals": sum(result.trace.deferrals for _, result in captured),
            "jobs": sum(result.num_jobs for _, result in captured),
            "resume_hit_ratio": warm.stats.hits / lookups if lookups else 0.0,
        }
        return counts, [v for found in per_trial for v in found] + campaign_level


WORKLOADS = {cls.name: cls for cls in (PcapsBatch, FifoStream, CampaignMix)}
