"""Campaign execution: supervised process-pool fan-out with caching/resume.

The runner expands a spec into trials, drops every trial whose key already
has a successful record in the store (the cache hit path), and fans the rest
across a :class:`~concurrent.futures.ProcessPoolExecutor`. Each worker runs
one trial end to end and returns a :class:`TrialRecord`; a crashing trial
produces an ``error`` record instead of killing the campaign, and error
records don't count as completed, so a later resume retries them.

The pool loop is *supervised* (knobs on :class:`~repro.campaign.supervise.
SupervisorConfig`): attempts that fail, hang past the per-trial timeout, or
die with their worker are retried from scratch under seeded exponential
backoff up to a bounded attempt budget; keys that exhaust the budget are
quarantined — recorded as failed :class:`TrialRecord`\\ s carrying the full
attempt history, never retried again this run. A broken pool (worker killed
by the OS) is rebuilt and its surviving in-flight trials resubmitted. SIGINT /
SIGTERM stop the run gracefully: completed futures are drained into the
store first, then :class:`~repro.campaign.supervise.CampaignInterrupted`
propagates, so a follow-up ``resume`` continues where the interrupt landed.

:func:`run_sweep` is the one way a normalized paper sweep runs: a spec,
inline, against a throwaway store, read out as
:func:`~repro.campaign.reports.sweep_points`; :func:`run_table` arranges
those points as Table 2/3 rows.

Determinism: a trial's results are a pure function of its config — workload
generation, scheduler randomness, and trace synthesis are all seeded from
config fields — so neither pool scheduling order, worker count, nor retry
schedule affects any metric. That property (pinned by the test suite) is
what makes the content-addressed cache sound.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro import faults
from repro.campaign.cache import CacheStats, trial_key
from repro.campaign.kinds import KINDS, kind_of
from repro.campaign.spec import CampaignSpec, config_from_dict, config_to_dict
from repro.campaign.store import (
    STATUS_ERROR,
    STATUS_OK,
    ResultStore,
    TrialRecord,
)
from repro.campaign.supervise import (
    CampaignInterrupted,
    SupervisorConfig,
    backoff_delay,
)
from repro.carbon.trace import CarbonTrace
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.obs.observer import current as _current_observer
from repro.simulator.metrics import ExperimentResult, NormalizedMetrics

if TYPE_CHECKING:
    from repro.campaign.reports import SweepPoint

#: ``on_progress(completed, total, line)`` — called once per finished trial
#: (including the initial batch of cache hits, reported as one step each).
ProgressCallback = Callable[[int, int, str], None]


def execute_trial(
    config: ExperimentConfig, carbon_trace: CarbonTrace | None = None
) -> ExperimentResult:
    """Run one fully-resolved trial. The single funnel every path uses."""
    return run_experiment(config, carbon_trace=carbon_trace)


def capture_trial_record(
    key: str,
    campaign: str,
    config_dict: dict,
    execute: Callable[[], Any],
    metrics_of: Callable[[Any], dict],
) -> TrialRecord:
    """Run one trial through the shared failure-isolation scaffold.

    The single place timing, ``ok``/``error`` status, and traceback capture
    live.
    """
    start = time.perf_counter()
    try:
        result = execute()
        return TrialRecord(
            key=key,
            campaign=campaign,
            config=config_dict,
            status=STATUS_OK,
            metrics=metrics_of(result),
            duration_s=time.perf_counter() - start,
        )
    except Exception as exc:  # failure isolation: one trial, one record
        return TrialRecord(
            key=key,
            campaign=campaign,
            config=config_dict,
            status=STATUS_ERROR,
            error="".join(
                traceback.format_exception_only(type(exc), exc)
            ).strip(),
            duration_s=time.perf_counter() - start,
        )


def run_trial_to_record(
    key: str, campaign: str, config, attempt: int = 1
) -> TrialRecord:
    """Execute one trial of any kind, capturing failure as an ``error``
    record."""
    kind = kind_of(config)

    def execute():
        # No-op unless a fault plan is active (tests, ``repro faults demo``).
        faults.maybe_inject_worker(key, attempt)
        return kind.run(config)

    return capture_trial_record(
        key,
        campaign,
        config_to_dict(config),
        execute,
        kind.metrics,
    )


def _pool_worker_init() -> None:
    """Pool-worker process initializer: restore default signal handling.

    Workers are forked after :meth:`CampaignRunner._signal_handlers` has
    installed the supervisor's SIGINT/SIGTERM handlers, and fork inherits
    them — a worker that kept those handlers would swallow the SIGTERM
    the supervisor sends to reclaim it after a hang. SIGTERM goes back to
    the default (die), and SIGINT is ignored so a terminal Ctrl-C reaches
    only the supervisor, which drains and shuts down deliberately.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _pool_worker(payload: tuple[str, str, str, dict], attempt: int = 1) -> TrialRecord:
    """Top-level (picklable) worker: rebuild the config, run, summarize.

    ``payload`` is ``(key, campaign, kind name, config dict)``.
    """
    key, campaign, kind_name, config_dict = payload
    config = config_from_dict(config_dict, KINDS[kind_name].config_type)
    return run_trial_to_record(key, campaign, config, attempt=attempt)


@dataclass
class _TrialState:
    """Supervision bookkeeping for one pending trial key."""

    key: str
    config: Any
    attempt: int = 0  # attempts charged so far (incremented on submit)
    errors: list[str] = field(default_factory=list)
    not_before: float = 0.0  # monotonic time the next attempt may start


@dataclass
class CampaignRun:
    """Everything a finished :meth:`CampaignRunner.run` hands back."""

    spec: CampaignSpec
    records: list[TrialRecord]
    stats: CacheStats = field(default_factory=CacheStats)
    wall_time_s: float = 0.0

    @property
    def failures(self) -> list[TrialRecord]:
        return [r for r in self.records if not r.ok]

    @property
    def ok_records(self) -> list[TrialRecord]:
        return [r for r in self.records if r.ok]


class CampaignRunner:
    """Runs campaigns against one store, with a process pool and caching.

    The resume/record/progress loop serves every trial kind: the spec's
    :class:`~repro.campaign.kinds.TrialKind` supplies how a trial runs,
    what its record keeps and how its progress line reads.

    Parameters
    ----------
    store:
        Result store consulted for cache hits and appended to as trials
        finish.
    workers:
        Pool size. ``None`` uses the CPU count; ``0``/``1`` runs trials
        inline in this process (no pool — useful for tests and tiny runs).
    code_version:
        Folded into every trial key; defaults to ``repro.__version__``.
    supervisor:
        Resilience policy (per-attempt timeout, attempt budget); defaults
        to :class:`SupervisorConfig`'s defaults — two attempts, no
        timeout.
    """

    def __init__(
        self,
        store: ResultStore,
        workers: int | None = None,
        code_version: str | None = None,
        supervisor: SupervisorConfig | None = None,
    ) -> None:
        self.store = store
        self.workers = workers
        self.code_version = code_version
        self.supervisor = supervisor if supervisor is not None else SupervisorConfig()
        self._stop = threading.Event()

    def request_shutdown(self) -> None:
        """Ask a running campaign to stop gracefully (the signal handlers
        call this; tests can too). Completed futures are drained into the
        store, then :class:`CampaignInterrupted` propagates."""
        self._stop.set()

    # ------------------------------------------------------------------
    def keyed_trials(self, spec: CampaignSpec) -> list[tuple[str, Any]]:
        """(key, config) per trial, deduplicated, in campaign order."""
        seen: dict[str, Any] = {}
        for config in spec.trials():
            seen.setdefault(trial_key(config, self.code_version), config)
        return list(seen.items())

    def collect(self, spec: CampaignSpec) -> list[TrialRecord]:
        """The spec's stored records only — no execution (``report``).

        Includes keys whose latest record is a *failure* (with attempt
        history), so report callers can distinguish "never ran" (absent)
        from "ran and failed" — aggregators like
        :func:`~repro.campaign.reports.campaign_report` filter to ``ok``
        themselves.
        """
        return self.store.latest([key for key, _ in self.keyed_trials(spec)])

    def run(
        self,
        spec: CampaignSpec,
        resume: bool = True,
        on_progress: ProgressCallback | None = None,
    ) -> CampaignRun:
        """Execute every trial of ``spec`` not already in the store.

        Trials are deduplicated by content-addressed key (config hash ×
        code version), stored records are reused when ``resume`` is true
        (so re-runs and overlapping sweeps cost nothing), and the rest
        fan out across the process pool with failure isolation — one
        crashing trial is recorded with its traceback and excluded from
        the cache, never killing the campaign. ``on_progress`` receives
        ``(done, total, label)`` per completed trial. Returns a
        :class:`CampaignRun` with per-trial records and cache stats;
        aggregate tables come from :mod:`repro.campaign.reports` using
        the store alone.
        """
        started = time.perf_counter()
        observer = _current_observer()
        span_start = observer.tracer.now_us() if observer is not None else 0.0
        keyed = self.keyed_trials(spec)
        completed = self.store.completed() if resume else {}
        configs = dict(keyed)
        label_of = spec.kind.label

        records: dict[str, TrialRecord] = {}
        pending: list[tuple[str, Any]] = []
        for key, config in keyed:
            if key in completed:
                records[key] = completed[key]
            else:
                pending.append((key, config))
        stats = CacheStats(hits=len(records), misses=len(pending))

        if observer is not None:
            registry = observer.registry
            tracer = observer.tracer
            registry.counter("campaign.store.hits").inc(stats.hits)
            registry.counter("campaign.store.misses").inc(stats.misses)
            obs_ok = registry.counter("campaign.trials.ok")
            obs_failed = registry.counter("campaign.trials.failed")
        else:
            registry = tracer = obs_ok = obs_failed = None

        total = len(keyed)
        done = 0
        for key in records:
            done += 1
            if on_progress is not None:
                on_progress(done, total, f"cached {label_of(configs[key])}")

        def finish(record: TrialRecord) -> None:
            nonlocal done
            self.store.append(record)
            records[record.key] = record
            done += 1
            label = label_of(configs[record.key])
            if tracer is not None:
                dur_us = record.duration_s * 1e6
                tracer.complete(
                    f"trial {label}",
                    start_us=max(0.0, tracer.now_us() - dur_us),
                    dur_us=dur_us,
                    cat="campaign",
                    key=record.key[:12],
                    ok=record.ok,
                )
            if obs_ok is not None:
                (obs_ok if record.ok else obs_failed).inc()
            if on_progress is not None:
                verb = "ok   " if record.ok else "FAIL "
                on_progress(done, total, f"{verb}{label} ({record.duration_s:.2f}s)")

        workers = self._effective_workers(len(pending))
        self._stop.clear()
        with self._signal_handlers():
            if workers <= 1:
                self._run_inline(pending, spec.name, finish)
            elif pending:
                self._run_pool(pending, spec.name, workers, finish)

        ordered = [records[key] for key, _ in keyed if key in records]
        wall_time_s = time.perf_counter() - started
        if registry is not None:
            registry.gauge("campaign.workers").set(workers)
            executed = [records[key] for key, _ in pending if key in records]
            if executed and wall_time_s > 0:
                busy = sum(r.duration_s for r in executed)
                registry.gauge("campaign.worker_utilization").set(
                    min(1.0, busy / (wall_time_s * max(1, workers)))
                )
        if observer is not None:
            observer.tracer.complete(
                f"campaign {spec.name}",
                start_us=span_start,
                dur_us=observer.tracer.now_us() - span_start,
                cat="campaign",
                trials=total,
                cache_hits=stats.hits,
                executed=len(pending),
            )
        return CampaignRun(
            spec=spec,
            records=ordered,
            stats=stats,
            wall_time_s=wall_time_s,
        )

    def _effective_workers(self, pending: int) -> int:
        if self.workers is not None:
            return max(0, self.workers)
        return min(os.cpu_count() or 1, max(pending, 1))

    # -- supervision ------------------------------------------------------
    @staticmethod
    def _count(name: str, n: int = 1) -> None:
        observer = _current_observer()
        if observer is not None:
            observer.registry.counter(name).inc(n)

    @contextmanager
    def _signal_handlers(self) -> Iterator[None]:
        """Convert SIGINT/SIGTERM into a graceful stop for the duration of
        one run. Only installable from the main thread; elsewhere (e.g. a
        runner driven from a worker thread) the caller uses
        :meth:`request_shutdown` directly."""
        if threading.current_thread() is not threading.main_thread():
            yield
            return
        previous: dict[int, Any] = {}

        def handler(signum, frame) -> None:  # noqa: ANN001 — signal API
            self._stop.set()

        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[sig] = signal.signal(sig, handler)
            except (ValueError, OSError):  # non-main interpreter contexts
                pass
        try:
            yield
        finally:
            for sig, prev in previous.items():
                signal.signal(sig, prev)

    def _stamp(self, record: TrialRecord, state: _TrialState) -> TrialRecord:
        """Fold the supervisor's attempt history into the final record."""
        return replace(
            record,
            attempts=max(1, state.attempt),
            attempt_errors=list(state.errors) or None,
        )

    def _quarantine_record(self, state: _TrialState, campaign: str) -> TrialRecord:
        """The failed record written when a key exhausts its attempt budget
        without its worker ever returning one (crash/hang paths)."""
        return TrialRecord(
            key=state.key,
            campaign=campaign,
            config=config_to_dict(state.config),
            status=STATUS_ERROR,
            error=state.errors[-1] if state.errors else "quarantined",
            attempts=state.attempt,
            attempt_errors=list(state.errors),
        )

    def _run_inline(
        self,
        pending: list[tuple[str, Any]],
        campaign: str,
        finish: Callable[[TrialRecord], None],
    ) -> None:
        """No-pool path: retries and quarantine apply, timeouts cannot (a
        hung trial would hang this very process)."""
        sup = self.supervisor
        for index, (key, config) in enumerate(pending):
            if self._stop.is_set():
                raise CampaignInterrupted(
                    completed=index, pending=len(pending) - index
                )
            state = _TrialState(key=key, config=config)
            while state.attempt < sup.max_attempts:
                if state.errors:  # a previous attempt failed: back off
                    self._count("campaign.retries")
                    time.sleep(backoff_delay(key, state.attempt))
                state.attempt += 1
                record = run_trial_to_record(
                    key, campaign, config, attempt=state.attempt
                )
                if record.ok:
                    break
                state.errors.append(record.error or "trial failed")
                if self._stop.is_set():
                    break
            if not record.ok and state.attempt >= sup.max_attempts:
                self._count("campaign.quarantines")
            finish(self._stamp(record, state))

    def _run_pool(
        self,
        pending: list[tuple[str, Any]],
        campaign: str,
        workers: int,
        finish: Callable[[TrialRecord], None],
    ) -> None:
        """The supervised pool loop: submit, watch deadlines, retry with
        seeded backoff, quarantine on budget exhaustion, rebuild broken
        pools, and drain completed futures on shutdown."""
        # Imported here, so inline campaigns never load multiprocessing.
        from concurrent.futures import (
            FIRST_COMPLETED,
            Future,
            ProcessPoolExecutor,
        )
        from concurrent.futures import wait as futures_wait
        from concurrent.futures.process import BrokenProcessPool

        sup = self.supervisor
        pool = ProcessPoolExecutor(
            max_workers=workers, initializer=_pool_worker_init
        )
        in_flight: dict[Future, tuple[_TrialState, float | None]] = {}
        waiting = [_TrialState(key=key, config=config) for key, config in pending]
        concluded = 0

        def submit(state: _TrialState) -> None:
            state.attempt += 1
            payload = (
                state.key,
                campaign,
                kind_of(state.config).name,
                config_to_dict(state.config),
            )
            future = pool.submit(_pool_worker, payload, state.attempt)
            deadline = (
                time.monotonic() + sup.trial_timeout_s
                if sup.trial_timeout_s is not None
                else None
            )
            in_flight[future] = (state, deadline)

        def conclude(state: _TrialState, record: TrialRecord) -> None:
            nonlocal concluded
            concluded += 1
            finish(self._stamp(record, state))

        def handle_failure(
            state: _TrialState, message: str, timed_out: bool = False
        ) -> None:
            nonlocal concluded
            state.errors.append(message)
            if timed_out:
                self._count("campaign.timeouts")
            if state.attempt >= sup.max_attempts:
                self._count("campaign.quarantines")
                concluded += 1
                finish(self._quarantine_record(state, campaign))
            else:
                self._count("campaign.retries")
                state.not_before = time.monotonic() + backoff_delay(
                    state.key, state.attempt
                )
                waiting.append(state)

        def rebuild_pool() -> None:
            """Replace a broken/hung pool; resubmit surviving in-flight
            trials on the fresh one without charging them an attempt."""
            nonlocal pool
            self._count("campaign.pool_rebuilds")
            # shutdown() alone never reclaims a hung worker — terminate
            # the processes explicitly (private attr, guarded: worst case
            # a leaked worker, not a crash).
            process_map = getattr(pool, "_processes", None)
            processes = list(process_map.values()) if process_map else []
            pool.shutdown(wait=False, cancel_futures=True)
            for process in processes:
                try:
                    if process.is_alive():
                        process.kill()  # SIGKILL: a hung worker may be
                        # deep in C code or sleeping through SIGTERM
                except Exception:  # pragma: no cover — best-effort reclaim
                    pass
            pool = ProcessPoolExecutor(
                max_workers=workers, initializer=_pool_worker_init
            )
            survivors = [state for state, _ in in_flight.values()]
            in_flight.clear()
            for state in survivors:
                state.attempt -= 1  # submit() re-charges; net zero
                submit(state)

        def drain_completed() -> None:
            """Shutdown path: bank every future that already finished."""
            for future, (state, _) in list(in_flight.items()):
                if not future.done():
                    continue
                del in_flight[future]
                try:
                    record = future.result()
                except Exception:
                    continue  # failed mid-shutdown: resume will retry it
                if record.ok:
                    conclude(state, record)

        try:
            while waiting or in_flight:
                if self._stop.is_set():
                    drain_completed()
                    raise CampaignInterrupted(
                        completed=concluded,
                        pending=len(waiting) + len(in_flight),
                    )
                now = time.monotonic()
                ready = [s for s in waiting if s.not_before <= now]
                waiting = [s for s in waiting if s.not_before > now]
                for position, state in enumerate(ready):
                    try:
                        submit(state)
                    except BrokenProcessPool:
                        # The pool died between iterations (a worker crash
                        # is only surfaced on the next interaction). Undo
                        # the charge, requeue everything still unlaunched,
                        # and rebuild.
                        state.attempt -= 1
                        waiting.extend(ready[position:])
                        rebuild_pool()
                        break
                if not in_flight:
                    # Everything is backing off; nap until the earliest
                    # retry (capped so stop stays responsive).
                    earliest = min(s.not_before for s in waiting)
                    time.sleep(min(0.05, max(0.0, earliest - now)))
                    continue
                done, _ = futures_wait(
                    set(in_flight), timeout=0.1, return_when=FIRST_COMPLETED
                )
                broken = False
                for future in done:
                    state, _deadline = in_flight.pop(future)
                    try:
                        record = future.result()
                    except BrokenProcessPool:
                        broken = True
                        handle_failure(
                            state,
                            "worker process died before returning a record "
                            "(BrokenProcessPool)",
                        )
                    except Exception as exc:
                        handle_failure(state, f"{type(exc).__name__}: {exc}")
                    else:
                        if record.ok:
                            conclude(state, record)
                        else:
                            handle_failure(state, record.error or "trial failed")
                now = time.monotonic()
                expired = [
                    (future, state)
                    for future, (state, deadline) in in_flight.items()
                    if deadline is not None and now >= deadline
                ]
                for future, state in expired:
                    del in_flight[future]
                    handle_failure(
                        state,
                        f"trial exceeded {sup.trial_timeout_s:.6g}s wall-clock "
                        "timeout; worker presumed hung",
                        timed_out=True,
                    )
                if broken or expired:
                    rebuild_pool()
        finally:
            pool.shutdown(wait=False, cancel_futures=True)


def run_sweep(spec: CampaignSpec, parameter: str) -> list[SweepPoint]:
    """Run ``spec`` inline against a throwaway store and return its
    :func:`~repro.campaign.reports.sweep_points` over ``parameter``.

    The one way a normalized sweep runs: each policy against the spec's
    baseline on the identical workload and trace slice, averaged over the
    other axes. A trial is a pure function of its config, so a failed one
    is not retried. Raises :class:`RuntimeError` naming every failed trial.
    """
    # Imported here: a campaign that is not a sweep never loads these.
    import tempfile
    from pathlib import Path

    from repro.campaign.reports import sweep_points

    with tempfile.TemporaryDirectory() as scratch:
        runner = CampaignRunner(
            ResultStore(Path(scratch) / "sweep.jsonl"),
            workers=0,
            supervisor=SupervisorConfig(max_attempts=1),
        )
        run = runner.run(spec)
    if run.failures:
        configs = dict(runner.keyed_trials(spec))
        failed = "; ".join(
            f"{spec.kind.label(configs[r.key])}: {r.error}" for r in run.failures
        )
        raise RuntimeError(f"campaign {spec.name!r}: trials failed: {failed}")
    return sweep_points(run.records, spec.baseline, parameter)


def run_table(spec: CampaignSpec) -> dict[str, NormalizedMetrics]:
    """A Table 2/3 comparison: every scheduler of ``spec`` against its
    baseline, averaged over the other axes, keyed in the spec's scheduler
    order with the baseline's own row (0% / 1 / 1) first."""
    points = {p.policy: p for p in run_sweep(spec, "scheduler")}
    baseline = spec.baseline
    rows = {baseline: NormalizedMetrics(baseline, baseline, 0.0, 1.0, 1.0)}
    for name in dict(spec.axes)["scheduler"]:
        if name != baseline:
            p = points[name]
            rows[name] = NormalizedMetrics(
                name, baseline, p.carbon_reduction_pct, p.ect_ratio, p.jct_ratio
            )
    return rows
