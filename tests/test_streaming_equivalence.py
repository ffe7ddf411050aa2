"""Streaming-vs-materialized equivalence: the determinism contract.

The streaming subsystem's core promise is that running a batch-sized trial
through the :class:`~repro.simulator.streaming.StreamingAggregator` —
whether by replaying a finished materialized result or by live-feeding the
engine from an :class:`~repro.workloads.stream.ArrivalStream` — produces
summary metrics *bit-identical* to the materialized
:class:`~repro.simulator.trace.ScheduleTrace` path. Pinned here over the
nine fingerprint scenarios (every scheduler family), plus hypothesis
property tests of the mechanism itself: exactly-rounded summation is
append-order independent, a bulk :meth:`ExactSum.extend` equals adding
each value, the buffered fold equals a per-record reference fold, and
window boundaries never change the global totals.
"""

import math
import pickle
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.campaign.store import result_metrics
from repro.experiments.runner import run_experiment
from repro.simulator import streaming
from repro.simulator.streaming import (
    SUMMARY_KEYS,
    ExactSum,
    StreamingAggregator,
    Welford,
    metrics_fingerprint,
    replay_result,
)
from repro.simulator.trace import HoldRecord, TaskRecord
from repro.stream import run_service

from conftest import make_trace
from fingerprint_scenarios import (  # noqa: F401  (re-exported for suites)
    PINNED_SCENARIOS,
    SCENARIO_IDS,
    pinned,
    stream_config_for,
)


def materialized_metrics(config) -> dict:
    return result_metrics(run_experiment(config))


def assert_bit_identical(streaming: dict, materialized: dict) -> None:
    for key in SUMMARY_KEYS:
        assert repr(streaming[key]) == repr(materialized[key]), (
            f"{key}: streaming {streaming[key]!r} "
            f"!= materialized {materialized[key]!r}"
        )
    assert metrics_fingerprint(streaming) == metrics_fingerprint(materialized)


class TestReplayEquivalence:
    """Replaying a finished materialized result through the aggregator."""

    @pytest.mark.parametrize("config", PINNED_SCENARIOS, ids=SCENARIO_IDS)
    def test_replay_matches_materialized_bit_for_bit(self, config):
        result = run_experiment(config)
        aggregator = replay_result(result)
        assert_bit_identical(
            aggregator.summary_metrics(), result_metrics(result)
        )

    @pytest.mark.parametrize("config", PINNED_SCENARIOS, ids=SCENARIO_IDS)
    def test_replay_window_width_does_not_change_summary(self, config):
        result = run_experiment(config)
        narrow = replay_result(result, window_s=50.0).summary_metrics()
        wide = replay_result(result, window_s=1e6).summary_metrics()
        assert {k: repr(v) for k, v in narrow.items()} == {
            k: repr(v) for k, v in wide.items()
        }


class TestLiveStreamEquivalence:
    """Live incremental feed: ArrivalStream + retirement + aggregator."""

    @pytest.mark.parametrize("config", PINNED_SCENARIOS, ids=SCENARIO_IDS)
    def test_service_run_matches_materialized_bit_for_bit(self, config):
        report = run_service(stream_config_for(config))
        assert report.drained
        assert report.jobs_completed == config.workload.num_jobs
        assert_bit_identical(report.summary, materialized_metrics(config))

    def test_gc_policy_never_changes_metrics(self):
        import dataclasses

        config = stream_config_for(pinned("fifo"))
        keep = dataclasses.replace(
            config,
            stream=dataclasses.replace(config.stream, gc_policy="keep"),
        )
        assert repr(run_service(config).to_dict()) == repr(
            run_service(keep).to_dict()
        )


# ----------------------------------------------------------------------
# Property tests of the mechanism
# ----------------------------------------------------------------------
reasonable_floats = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)
#: Addends from subnormal magnitudes up to 1e12, zeros of both signs
#: included.
addends = st.one_of(
    reasonable_floats,
    st.floats(min_value=-1e-300, max_value=1e-300),
)


class TestExactSumProperties:
    @given(st.lists(reasonable_floats, max_size=50), st.randoms())
    def test_order_independent_and_equal_to_fsum(self, values, rnd):
        shuffled = list(values)
        rnd.shuffle(shuffled)
        assert ExactSum(values).value == ExactSum(shuffled).value
        assert ExactSum(values).value == math.fsum(values)

    @given(st.lists(reasonable_floats, max_size=30))
    def test_pickle_preserves_exact_state(self, values):
        acc = ExactSum(values)
        clone = pickle.loads(pickle.dumps(acc))
        clone.add(0.1)
        acc.add(0.1)
        assert clone.value == acc.value

    @given(
        st.lists(addends, max_size=40),
        st.lists(addends, max_size=60),
        st.lists(addends, max_size=10),
    )
    def test_extend_equals_adding_each(self, first, batch, later):
        bulk, each = ExactSum(first), ExactSum(first)
        bulk.extend(batch)
        for value in batch:
            each.add(value)
        assert repr(bulk.value) == repr(each.value)
        copies = [pickle.loads(pickle.dumps(acc)) for acc in (bulk, each)]
        for value in later:
            for acc in (bulk, each, *copies):
                acc.add(value)
        assert len({repr(acc.value) for acc in (bulk, each, *copies)}) == 1
        bulk.extend(later)
        for value in later:
            each.add(value)
        assert repr(bulk.value) == repr(each.value)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1,
                    max_size=40))
    def test_welford_matches_batch_moments(self, values):
        w = Welford()
        for v in values:
            w.add(v)
        mean = math.fsum(values) / len(values)
        assert w.count == len(values)
        assert w.mean == pytest.approx(mean, rel=1e-9, abs=1e-9)
        var = math.fsum((v - mean) ** 2 for v in values) / len(values)
        assert w.variance == pytest.approx(var, rel=1e-6, abs=1e-6)


#: Random complete task records: (start, duration) pairs.
task_spans = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=5000.0),
        st.floats(min_value=0.1, max_value=500.0),
    ),
    min_size=1,
    max_size=30,
)


def fresh_aggregator(
    window_s: float = 600.0, cls: type = StreamingAggregator
) -> StreamingAggregator:
    return cls(
        total_executors=4,
        carbon=make_trace([100.0, 250.0, 50.0, 400.0] * 40),
        window_s=window_s,
    )


def fold_spans(aggregator, spans, order=None) -> StreamingAggregator:
    indexed = list(enumerate(spans))
    if order is not None:
        order.shuffle(indexed)
    for i, (start, duration) in indexed:
        record = TaskRecord(
            job_id=i, stage_id=0, task_index=0, executor_id=i % 4,
            start=start, work_start=start, end=start + duration,
        )
        aggregator.task_done(aggregator.add_task(record))
        aggregator.observe_arrival(i, start)
        aggregator.observe_finish(i, start, start + duration)
    return aggregator


class TestAggregatorProperties:
    @given(task_spans, st.randoms())
    @settings(max_examples=30, deadline=None)
    def test_append_order_never_changes_summary(self, spans, rnd):
        in_order = fold_spans(fresh_aggregator(), spans).summary_metrics()
        shuffled = fold_spans(
            fresh_aggregator(), spans, order=rnd
        ).summary_metrics()
        assert metrics_fingerprint(in_order) == metrics_fingerprint(shuffled)

    @given(task_spans, st.floats(min_value=1.0, max_value=10_000.0))
    @settings(max_examples=30, deadline=None)
    def test_window_width_never_changes_summary(self, spans, window_s):
        base = fold_spans(fresh_aggregator(), spans).summary_metrics()
        other = fold_spans(
            fresh_aggregator(window_s=window_s), spans
        ).summary_metrics()
        assert metrics_fingerprint(base) == metrics_fingerprint(other)

    @given(task_spans)
    @settings(max_examples=30, deadline=None)
    def test_window_totals_sum_to_global_totals(self, spans):
        # Random spans are not near-monotone in time, so give the
        # aggregator enough open windows that nothing folds late (a late
        # fold counts globally but is absorbed outside the ring).
        aggregator = fresh_aggregator(window_s=250.0)
        aggregator.open_windows = 64
        aggregator = fold_spans(aggregator, spans)
        assert aggregator.late_folds == 0
        aggregator.flush_windows()
        windows = aggregator.recent_windows()
        assert math.fsum(
            w["busy_s"] for w in windows
        ) == pytest.approx(aggregator.summary_metrics()["total_busy_time"])
        assert sum(w["jobs_completed"] for w in windows) == len(spans)
        assert sum(w["tasks_completed"] for w in windows) == len(spans)


class PerRecordAggregator(StreamingAggregator):
    """Reference: the fold without a buffer. Each record's carbon comes
    from a scalar ``integrate`` and goes into its totals and window with
    ``ExactSum.add`` at once, so the buffer always stays empty."""

    def add_hold(self, record: HoldRecord) -> None:
        self.hold_count += 1
        self._hold_busy.add(record.end - record.start)
        self._hold_carbon.add(self.carbon.integrate(record.start, record.end))

    def _fold_task(self, record: TaskRecord) -> None:
        busy = record.end - record.start
        emitted = self.carbon.integrate(record.start, record.end)
        self.tasks_completed += 1
        if record.preempted:
            self.tasks_preempted += 1
        self._task_busy.add(busy)
        self._task_carbon.add(emitted)
        if record.end > self._max_task_end:
            self._max_task_end = record.end
        window = self._window_at(record.end)
        window.tasks_completed += 1
        if record.preempted:
            window.tasks_preempted += 1
        window.busy.add(busy)
        window.carbon.add(emitted)


#: The aggregator's reads, each of which must fold the buffer first.
READS = {
    "summary": StreamingAggregator.summary_metrics,
    "windows": StreamingAggregator.recent_windows,
    "carbon": StreamingAggregator.carbon_footprint,
    "busy": StreamingAggregator.total_busy_time,
}

#: One step of a random service run: (what, clock advance, duration, lag).
#: A record ends ``lag`` seconds behind the clock, so a large lag can land
#: behind every open window (a late fold).
fold_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ["task", "task", "task", "truncate", "hold", "hold", "job",
             "pickle", *READS]
        ),
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=0.0, max_value=900.0),
        st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=4000.0)),
    ),
    max_size=120,
)


def drive(aggregator: StreamingAggregator, ops) -> tuple[list[str], object]:
    """Feed ``ops`` to ``aggregator``; return every read it made (as
    ``repr`` strings) and the aggregator, which pickling replaces."""
    reads: list[str] = []
    clock = 0.0
    for job, (what, advance, duration, lag) in enumerate(ops):
        clock += advance
        end = max(clock - lag, 0.0)
        start = max(end - duration, 0.0)
        if what in ("task", "truncate"):
            scheduled = end + duration if what == "truncate" else end
            handle = aggregator.add_task(
                TaskRecord(
                    job_id=job, stage_id=0, task_index=0, executor_id=0,
                    start=start, work_start=start, end=scheduled,
                )
            )
            if what == "task":
                aggregator.task_done(handle)
            else:
                aggregator.truncate_task(handle, end)
        elif what == "hold":
            aggregator.add_hold(
                HoldRecord(job_id=job, executor_id=0, start=start, end=end)
            )
        elif what == "job":
            aggregator.observe_arrival(job, start)
            aggregator.observe_finish(job, start, end, serial_work=duration)
        elif what == "pickle":
            aggregator = pickle.loads(pickle.dumps(aggregator))
        else:
            reads.append(repr(READS[what](aggregator)))
    aggregator.finalize()
    aggregator.flush_windows()
    reads.extend(repr(read(aggregator)) for read in READS.values())
    return reads, aggregator


class TestBufferedFold:
    """The buffered bulk fold against the per-record reference."""

    @given(
        fold_ops,
        st.floats(min_value=10.0, max_value=5000.0),
        st.integers(min_value=1, max_value=6),
        st.sampled_from([1, 3, streaming.FLUSH_INTERVALS]),
    )
    @settings(max_examples=60, deadline=None)
    def test_buffered_fold_matches_per_record_fold(
        self, ops, window_s, open_windows, flush_at
    ):
        # The clock can run 5 passes of this 2,400 s trace, so intervals
        # cross the wrap as well as step boundaries.
        carbon = make_trace([100.0, 250.0, 50.0, 400.0] * 10)

        def build(cls):
            return cls(
                total_executors=4,
                carbon=carbon,
                window_s=window_s,
                ring_windows=10_000,  # keep every snapshot for comparison
                open_windows=open_windows,
            )

        expected, reference = drive(build(PerRecordAggregator), ops)
        with mock.patch.object(streaming, "FLUSH_INTERVALS", flush_at):
            got, buffered = drive(build(StreamingAggregator), ops)
        assert got == expected
        assert buffered.late_folds == reference.late_folds
        assert buffered.windows_closed == reference.windows_closed
        assert buffered.metrics_fingerprint() == reference.metrics_fingerprint()

    @pytest.mark.parametrize("read", READS)
    def test_every_read_folds_the_buffer_first(self, read):
        spans = [(10.0, 5.0), (20.0, 7.5), (30.0, 1.25)]
        hold = HoldRecord(job_id=0, executor_id=0, start=5.0, end=40.0)
        reference, buffered = (
            fold_spans(fresh_aggregator(cls=cls), spans)
            for cls in (PerRecordAggregator, StreamingAggregator)
        )
        reference.add_hold(hold)
        buffered.add_hold(hold)
        assert buffered._buffer_slots
        assert repr(READS[read](buffered)) == repr(READS[read](reference))

    def test_checkpoint_carries_no_buffer(self):
        aggregator = fresh_aggregator()
        fold_spans(aggregator, [(10.0, 5.0), (20.0, 7.5)])
        assert aggregator._buffer_slots
        assert "_buffer_slots" not in aggregator.__getstate__()
        assert not aggregator._buffer_slots
        clone = pickle.loads(pickle.dumps(aggregator))
        fold_spans(clone, [(30.0, 2.0)])
        assert len(clone._buffer_slots) == 1
        assert not aggregator._buffer_slots
        fold_spans(aggregator, [(30.0, 2.0)])
        assert clone.summary_metrics() == aggregator.summary_metrics()

    def test_buffer_folds_at_flush_intervals(self):
        aggregator = fresh_aggregator(window_s=1e9)
        spans = [(float(i), 1.0) for i in range(streaming.FLUSH_INTERVALS)]
        fold_spans(aggregator, spans[:-1])
        assert len(aggregator._buffer_slots) == len(spans) - 1
        fold_spans(aggregator, spans[-1:])
        assert not aggregator._buffer_slots
