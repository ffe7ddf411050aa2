"""Tests for the streaming service mode: specs, streams, and the runner."""

import json
import pickle

import pytest

from repro.experiments.runner import (
    ExperimentConfig,
    simulation_for,
    workload_for,
)
from repro.simulator.engine import SimulationStepper
from repro.stream import (
    ServiceConfig,
    ServiceRunner,
    StreamReport,
    format_stream_report,
    run_service,
)
from repro.stream.service import CHECKPOINT_FILENAME
from repro.workloads.batch import WorkloadSpec, build_workload
from repro.workloads.stream import ArrivalStream, StreamSpec

from fingerprint_scenarios import (
    PINNED_SCENARIOS,
    SCENARIO_IDS,
    stream_config_for,
)


def tiny_service(max_jobs=12, **overrides) -> ServiceConfig:
    params = dict(
        experiment=ExperimentConfig(
            scheduler="fifo", num_executors=4, seed=3
        ),
        stream=StreamSpec(
            mean_interarrival=8.0, tpch_scales=(2,), seed=3,
            max_jobs=max_jobs,
        ),
        epoch_events=64,
    )
    params.update(overrides)
    return ServiceConfig(**params)


class TestStreamSpec:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            StreamSpec(family="nope")
        with pytest.raises(ValueError):
            StreamSpec(mean_interarrival=0.0)
        with pytest.raises(ValueError):
            StreamSpec(max_jobs=0)
        with pytest.raises(ValueError):
            StreamSpec(horizon_s=-1.0)
        with pytest.raises(ValueError):
            StreamSpec(gc_policy="hoard")

    def test_batch_equivalent_mirrors_fields(self):
        spec = StreamSpec(
            family="tpch", mean_interarrival=7.0, tpch_scales=(2, 10),
            seed=9,
        )
        batch = spec.batch_equivalent(5)
        assert batch.num_jobs == 5
        assert batch.mean_interarrival == 7.0
        assert batch.tpch_scales == (2, 10)


class TestArrivalStream:
    @pytest.mark.parametrize("family", ["tpch", "alibaba"])
    def test_prefix_matches_batch_workload_bit_for_bit(self, family):
        spec = StreamSpec(
            family=family, mean_interarrival=9.0, tpch_scales=(2,),
            seed=7, max_jobs=10,
        )
        batch = build_workload(spec.batch_equivalent(10), seed=7)
        stream = ArrivalStream(spec)
        for expected in batch:
            got = stream.take()
            assert got.job_id == expected.job_id
            assert repr(got.arrival_time) == repr(expected.arrival_time)
            assert got.dag.name == expected.dag.name
            assert got.dag.total_work == expected.dag.total_work
        assert stream.exhausted

    def test_horizon_bounds_the_stream(self):
        spec = StreamSpec(mean_interarrival=10.0, seed=0, horizon_s=100.0)
        stream = ArrivalStream(spec)
        times = []
        while not stream.exhausted:
            times.append(stream.take().arrival_time)
        assert times and all(t <= 100.0 for t in times)

    def test_take_after_exhaustion_raises(self):
        stream = ArrivalStream(StreamSpec(max_jobs=1, tpch_scales=(2,)))
        stream.take()
        with pytest.raises(StopIteration):
            stream.take()

    def test_pickle_roundtrip_resumes_exactly(self):
        spec = StreamSpec(mean_interarrival=5.0, tpch_scales=(2,), seed=4,
                          max_jobs=20)
        stream = ArrivalStream(spec)
        for _ in range(7):
            stream.take()
        clone = pickle.loads(pickle.dumps(stream))
        for _ in range(13):
            a, b = stream.take(), clone.take()
            assert repr(a.arrival_time) == repr(b.arrival_time)
            assert a.dag.name == b.dag.name
        assert stream.exhausted and clone.exhausted

    def test_feed_keeps_heap_primed_in_time_order(self):
        from repro.experiments.runner import simulation_for

        config = tiny_service(max_jobs=6)
        stepper = simulation_for(config.experiment).stepper()
        stream = ArrivalStream(config.stream)
        fed = stream.feed(stepper)
        assert fed, "an empty heap must be seeded with one arrival"
        while stepper.events:
            nxt = stream.peek_time()
            if nxt is not None:
                assert nxt > stepper.next_event_time()
            stepper.step()
            stream.feed(stepper)
        assert stream.exhausted


class TestServiceConfig:
    def test_checkpointing_requires_directory(self):
        with pytest.raises(ValueError):
            tiny_service(checkpoint_every_epochs=2)

    def test_rejects_bad_cadence(self):
        with pytest.raises(ValueError):
            tiny_service(epoch_events=0)
        with pytest.raises(ValueError):
            tiny_service(window_s=0.0)


class TestServiceRunner:
    def test_run_drains_and_reports(self):
        report = run_service(tiny_service())
        assert report.drained
        assert report.jobs_arrived == report.jobs_completed == 12
        assert report.jobs_active == 0
        assert report.open_tasks == 0
        assert report.epochs >= 1
        assert report.summary["num_jobs"] == 12
        assert len(report.fingerprint) == 64

    def test_retirement_keeps_engine_state_bounded(self):
        peaks = []
        runner = ServiceRunner(
            tiny_service(max_jobs=60),
            on_epoch=lambda r: peaks.append(len(r.stepper.jobs)),
        )
        runner.run()
        # Finished jobs leave the engine each epoch: the jobs dict tracks
        # the in-flight set, never the 60 total.
        assert max(peaks) < 60
        assert len(runner.stepper.jobs) == 0

    def test_retire_finished_returns_the_finished_jobs_after_every_step(self):
        """retire_finished() skips its scan unless a job finished since
        its last call; after every step it still returns exactly the done
        jobs, in the jobs mapping's order, across a checkpoint restore."""
        config = ExperimentConfig(
            scheduler="fifo", num_executors=4, seed=3,
            workload=WorkloadSpec(
                num_jobs=20, mean_interarrival=8.0, tpch_scales=(2,)
            ),
        )
        stepper = simulation_for(config).stepper()
        for sub in workload_for(config):
            stepper.submit(sub)
        retired = steps = 0
        while stepper.events:
            stepper.step()
            steps += 1
            if steps == 40:
                stepper = SimulationStepper.restore(stepper.checkpoint())
            expected = [
                (job_id, job.arrival_time, job.finish_time, job.dag.total_work)
                for job_id, job in stepper.jobs.items()
                if job.done
            ]
            assert stepper.retire_finished() == expected
            retired += len(expected)
        assert retired == 20 and steps > 40

    def test_frontier_table_keeps_blocks_for_active_jobs_only(self):
        """PCAPS serves its frontier from the engine's table. Every epoch,
        the table holds a block for each active job and, until its next
        refresh, for jobs finished since the last one (their last finish
        touched them); never for the stream's retired past."""
        seen = []

        def check(runner):
            table = runner.stepper._frontier_table
            stale = set(table._blocks) - set(runner.stepper.active)
            assert stale <= table._dirty | set(table._touched)
            assert not stale & set(runner.stepper.jobs)  # all retired
            seen.append(len(table._blocks))

        runner = ServiceRunner(
            tiny_service(
                max_jobs=60,
                experiment=ExperimentConfig(
                    scheduler="pcaps", num_executors=4, seed=3
                ),
            ),
            on_epoch=check,
        )
        runner.run()
        assert runner.stepper._frontier_table._full is not None
        assert 0 < max(seen) < 60

    def test_fifo_never_builds_a_frontier_table(self):
        """FIFO never asks for the frontier, so its table ignores every
        mark and touch: no dirty ids accumulate over the stream."""

        def check(runner):
            table = runner.stepper._frontier_table
            assert table._full is None
            assert not table._dirty and not table._touched
            assert not table._blocks

        report = ServiceRunner(tiny_service(max_jobs=60), on_epoch=check).run()
        assert report.jobs_completed == 60

    def test_drain_stops_admissions_and_finishes_in_flight(self):
        runner = ServiceRunner(tiny_service(max_jobs=1000))
        runner.run_epoch()
        runner.drain()
        arrived = runner.aggregator.jobs_arrived
        report = runner.run()
        assert report.drained
        assert report.jobs_arrived == arrived < 1000
        assert report.jobs_completed == report.jobs_arrived

    def test_max_epochs_pauses_without_drain(self):
        runner = ServiceRunner(tiny_service(max_jobs=1000))
        report = runner.run(max_epochs=2)
        assert report.epochs == 2
        assert not report.drained

    def test_checkpoint_restore_is_bit_identical(self, tmp_path):
        config = tiny_service(
            max_jobs=40,
            checkpoint_every_epochs=2,
            checkpoint_dir=str(tmp_path),
        )
        baseline = run_service(tiny_service(max_jobs=40))

        runner = ServiceRunner(config)
        for _ in range(4):
            assert runner.run_epoch()
        assert runner.checkpoints_written >= 1
        blob = (tmp_path / CHECKPOINT_FILENAME).read_bytes()
        resumed = ServiceRunner.restore(blob).run()
        assert resumed.fingerprint == baseline.fingerprint
        assert resumed.summary == baseline.summary

    def test_restore_rejects_materialized_checkpoints(self):
        from repro.experiments.runner import simulation_for, workload_for

        config = ExperimentConfig(
            scheduler="fifo", num_executors=4, seed=0,
            workload=WorkloadSpec(num_jobs=2, tpch_scales=(2,)),
        )
        stepper = simulation_for(config).stepper()
        for sub in workload_for(config):
            stepper.submit(sub)
        blob = pickle.dumps(
            {
                "config": tiny_service(),
                "stepper": stepper.checkpoint(),
                "stream": None,
                "job_meta": {},
                "epochs": 0,
                "draining": False,
            }
        )
        with pytest.raises(TypeError):
            ServiceRunner.restore(blob)

    def test_obs_gauges_emitted_per_epoch(self):
        from repro.obs.observer import collecting

        with collecting("stream-test") as observer:
            run_service(tiny_service())
        registry = observer.registry
        assert registry.value("stream.jobs_completed") == 12
        assert registry.value("stream.jobs_active") == 0
        assert registry.value("stream.epochs") >= 1

    def test_result_requires_materialized_backend(self):
        runner = ServiceRunner(tiny_service())
        runner.run()
        with pytest.raises(RuntimeError):
            runner.stepper.result()


#: What a service checkpoint holds: engine, stream and runner position.
CHECKPOINT_KEYS = {
    "config", "stepper", "stream", "job_meta", "epochs", "draining",
    "sim_now",
}


@pytest.mark.parametrize("epochs", [1, 2], ids=["epoch1", "epoch2"])
@pytest.mark.parametrize("config", PINNED_SCENARIOS, ids=SCENARIO_IDS)
def test_service_restore_is_bit_identical(config, epochs):
    """Every pinned scenario's service run, checkpointed after ``epochs``
    epochs and restored, finishes with the uninterrupted run's metrics
    fingerprint and summary: restore is exact under every scheduler, not
    only FIFO."""
    service = stream_config_for(config)
    plain = run_service(service)
    runner = ServiceRunner(service)
    for _ in range(epochs):
        assert runner.run_epoch()
    blob = runner.checkpoint()
    assert set(pickle.loads(blob)) == CHECKPOINT_KEYS
    resumed = ServiceRunner.restore(blob).run()
    assert resumed.fingerprint == plain.fingerprint
    assert resumed.summary == plain.summary
    assert resumed.epochs == plain.epochs


class TestStreamReport:
    def test_round_trips_through_dict(self):
        report = run_service(tiny_service())
        clone = StreamReport.from_dict(
            json.loads(json.dumps(report.to_dict()))
        )
        assert clone.fingerprint == report.fingerprint
        assert clone.summary == report.summary
        assert clone.windows == report.windows

    def test_format_mentions_the_essentials(self):
        report = run_service(tiny_service())
        text = format_stream_report(report)
        assert "jobs completed" in text
        assert "fingerprint" in text
        assert report.fingerprint[:16] in text


class TestStreamCLI:
    def test_stream_run_report_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "report.json"
        assert main(
            [
                "stream", "run", "--scheduler", "fifo", "--executors", "4",
                "--jobs", "8", "--interarrival", "8", "--scales", "2",
                "--seed", "3", "--output", str(out), "--quiet",
            ]
        ) == 0
        first = capsys.readouterr().out
        assert "jobs completed" in first
        assert out.exists()
        assert main(["stream", "report", "--input", str(out)]) == 0
        assert "jobs completed" in capsys.readouterr().out

    def test_stream_run_requires_a_bound(self, capsys):
        from repro.cli import main

        assert main(["stream", "run", "--quiet"]) != 0
        assert "--jobs" in capsys.readouterr().err
