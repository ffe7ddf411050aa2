"""Span recording from outside the program, for the traced benchmark run.

The benchmark never instruments ``src/``. For a traced run it swaps a
public function or method of each layer for a thin wrapper that opens a
span on entry and closes it on exit, runs the unit of work, and puts the
originals back. Spans nest strictly (the engine is single-threaded and its
select generators are driven synchronously), so a span's self time is its
duration minus the summed durations of its direct children, and the self
times of all spans under the root add up to the root's duration.

Up to ``keep_spans`` spans are kept in memory and written as Chrome-trace
JSON when the run ends; the per-layer table of calls and self time is
accumulated online, so later traced repetitions cost no span storage.
"""

from __future__ import annotations

import inspect
import json
from array import array
from time import perf_counter

ROOT = "bench.unit"


class SpanRecorder:
    """Per-layer call counts and self times, plus optional raw spans."""

    def __init__(self, keep_spans: int = 0) -> None:
        #: Spans to keep for the Chrome trace (later ones are still counted
        #: in the table, just not written out).
        self.keep_spans = keep_spans
        self.dropped_spans = 0
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        #: Extra counters observed at layer boundaries (rows, bytes, tasks).
        self.counters: dict[str, float] = {}
        # Open spans: [name id, start, summed child duration, span id].
        self._stack: list[list] = []
        self._next_id = 0
        # Closed spans as parallel arrays (span id, name id, start, end,
        # parent span id); span ids number spans in the order they opened.
        self._span_id = array("q")
        self._span_name = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._span_parent = array("q")

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return nid

    def open(self, nid: int) -> None:
        self._stack.append([nid, perf_counter(), 0.0, self._next_id])
        self._next_id += 1

    def close(self) -> None:
        end = perf_counter()
        nid, start, child, span_id = self._stack.pop()
        duration = end - start
        self.calls[nid] += 1
        self.self_s[nid] += duration - child
        stack = self._stack
        if stack:
            stack[-1][2] += duration
        if span_id >= self.keep_spans:
            # Keeping the first spans *opened* keeps every kept span's
            # parent (opened earlier) in the written tree.
            self.dropped_spans += 1
        else:
            self._span_id.append(span_id)
            self._span_name.append(nid)
            self._span_start.append(start)
            self._span_end.append(end)
            self._span_parent.append(stack[-1][3] if stack else -1)

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- results ---------------------------------------------------------
    def table(self) -> dict[str, dict[str, float]]:
        """``{layer: {"calls": n, "self_s": seconds}}`` for every layer seen."""
        return {
            name: {"calls": self.calls[i], "self_s": self.self_s[i]}
            for i, name in enumerate(self.names)
        }

    def total_self_s(self) -> float:
        return sum(self.self_s)

    def write_chrome_trace(self, path, metadata: dict) -> int:
        """Write the kept spans as Chrome-trace complete events; returns
        the number of spans written."""
        if not len(self._span_start):
            return 0
        origin = min(self._span_start)
        names = self.names
        events = [
            {
                "name": names[self._span_name[i]],
                "cat": names[self._span_name[i]].split(".")[0],
                "ph": "X",
                "ts": round((self._span_start[i] - origin) * 1e6, 3),
                "dur": round((self._span_end[i] - self._span_start[i]) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {
                    "id": self._span_id[i],
                    "parent": self._span_parent[i],
                },
            }
            for i in range(len(self._span_start))
        ]
        events.sort(key=lambda event: event["args"]["id"])
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "traceEvents": events,
                    "displayTimeUnit": "ms",
                    "metadata": metadata,
                },
                handle,
            )
        return len(events)


def _wrap(fn, recorder: SpanRecorder, name: str, count_as, observe):
    """A span-recording stand-in for ``fn`` (plain or generator function)."""
    nid = recorder.name_id(name)
    rec_open, rec_close, rec_count = recorder.open, recorder.close, recorder.count

    if inspect.isgeneratorfunction(fn):

        def traced_gen(*args, **kwargs):
            rec_open(nid)
            try:
                return (yield from fn(*args, **kwargs))
            finally:
                rec_close()

        return traced_gen

    def traced(*args, **kwargs):
        rec_open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec_close()
        if count_as is not None:
            rec_count(count_as)
        if observe is not None:
            observe(recorder, result)
        return result

    return traced


def _frontier_rows(recorder: SpanRecorder, frontier) -> None:
    recorder.count("state.frontier_rows", len(frontier))


def _checkpoint_bytes(recorder: SpanRecorder, path) -> None:
    recorder.count("service.checkpoint.bytes", path.stat().st_size)


def layer_targets() -> list[tuple[object, str, str, str | None, object]]:
    """``(owner, attribute, layer, count_as, observe)`` for every wrapped
    public function, grouped by the layer it measures."""
    from repro.campaign import executor as campaign_executor
    from repro.campaign.store import ResultStore
    from repro.carbon.api import CarbonIntensityAPI
    from repro.carbon.trace import CarbonTrace
    from repro.core.cap import CAPProvisioner
    from repro.core.pcaps import PCAPSScheduler
    from repro.experiments import runner
    from repro.schedulers.decima import DecimaScheduler
    from repro.schedulers.fifo import FIFOScheduler, KubernetesDefaultScheduler
    from repro.schedulers.greenhadoop import GreenHadoopProvisioner
    from repro.schedulers.weighted_fair import WeightedFairScheduler
    from repro.simulator.engine import SimulationStepper
    from repro.simulator.metrics import ExperimentResult
    from repro.simulator.state import ClusterView
    from repro.simulator.streaming import StreamingAggregator
    from repro.simulator.trace import ScheduleTrace
    from repro.stream import service
    from repro.workloads import batch
    from repro.workloads.stream import ArrivalStream

    targets = [
        (SimulationStepper, "step", "engine.step", None, None),
        (ClusterView, "block", "engine.block", None, None),
        (ClusterView, "frontier_arrays", "state.frontier_arrays", None, _frontier_rows),
        (ClusterView, "ready_stages", "state.ready_stages", None, None),
        (ClusterView, "has_assignable", "state.has_assignable", None, None),
        (DecimaScheduler, "scores_from_arrays", "sched.score", None, None),
        (CAPProvisioner, "quota", "provision.quota", None, None),
        (GreenHadoopProvisioner, "quota", "provision.quota", None, None),
        (CAPProvisioner, "scale_parallelism", "provision.scale_parallelism", None, None),
        (GreenHadoopProvisioner, "scale_parallelism", "provision.scale_parallelism", None, None),
        (CarbonIntensityAPI, "reading", "carbon.reading", None, None),
        (CarbonTrace, "integrate", "carbon.integrate", None, None),
        (ExperimentResult, "carbon_footprint", "carbon.tally", None, None),
        (batch, "build_workload", "workloads.synth", None, None),
        (runner, "build_workload", "workloads.synth", None, None),
        (ArrivalStream, "take", "workloads.synth", None, None),
        (runner, "simulation_for", "campaign.trial_setup", None, None),
        (service, "simulation_for", "campaign.trial_setup", None, None),
        (service.ServiceRunner, "run_epoch", "service.epoch", None, None),
        (SimulationStepper, "retire_finished", "service.retire", None, None),
        (service.ServiceRunner, "write_checkpoint", "service.checkpoint", None, _checkpoint_bytes),
        (campaign_executor.CampaignRunner, "run", "campaign.dispatch", None, None),
        (campaign_executor, "run_trial_to_record", "campaign.trial", None, None),
        (ResultStore, "append", "campaign.store.append", None, None),
        (ResultStore, "completed", "campaign.store.read", None, None),
        (ResultStore, "latest", "campaign.store.read", None, None),
    ]
    for scheduler in (
        FIFOScheduler,
        KubernetesDefaultScheduler,
        WeightedFairScheduler,
        DecimaScheduler,
        PCAPSScheduler,
    ):
        targets.append((scheduler, "select_gen", "sched.select", None, None))
    for backend, layer in ((ScheduleTrace, "trace.append"), (StreamingAggregator, "stream.fold")):
        for method in ("add_task", "task_done", "add_quota", "add_hold"):
            count_as = "tasks" if method == "add_task" else None
            targets.append((backend, method, layer, count_as, None))
    targets.append((StreamingAggregator, "observe_finish", "stream.fold", None, None))
    return targets


_MISSING = object()


class LayerTracing:
    """Context manager: wrap every layer target, restore on exit.

    Every original is resolved before any wrapper is installed, so a class
    that inherits a method from another wrapped class gets a wrapper of the
    original function, never a wrapper of a wrapper.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> SpanRecorder:
        plan = []
        for owner, attr, layer, count_as, observe in layer_targets():
            static = inspect.getattr_static(owner, attr)
            own = vars(owner).get(attr, _MISSING)
            plan.append((owner, attr, layer, count_as, observe, static, own))
        for owner, attr, layer, count_as, observe, static, own in plan:
            self._saved.append((owner, attr, own))
            if isinstance(static, property):
                wrapper = property(
                    _wrap(static.fget, self.recorder, layer, count_as, observe)
                )
            else:
                wrapper = _wrap(static, self.recorder, layer, count_as, observe)
            setattr(owner, attr, wrapper)
        return self.recorder

    def __exit__(self, *exc) -> None:
        for owner, attr, own in reversed(self._saved):
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
        self._saved.clear()


def traced(unit, recorder: SpanRecorder):
    """Run ``unit()`` under layer tracing inside a root span.

    Returns ``(result, wall_s)`` where ``wall_s`` is measured outside the
    root span, so the layer self times can be checked against it.
    """
    root = recorder.name_id(ROOT)
    with LayerTracing(recorder):
        start = perf_counter()
        recorder.open(root)
        try:
            result = unit()
        finally:
            recorder.close()
        wall = perf_counter() - start
    return result, wall
