"""Command-line interface: ``python -m repro <command>``.

Gives downstream users the paper's experiments without writing code:

- ``repro table1`` / ``table2`` / ``table3`` — regenerate the paper tables;
- ``repro fig1`` — the motivating example;
- ``repro run`` — one matchup (schedulers × grid × workload), normalized;
- ``repro sweep`` — a γ or B sweep on one grid;
- ``repro grids`` — list the modelled grids and their statistics;
- ``repro campaign`` — list/run/resume/report parallel experiment campaigns
  of every kind (process-pool fan-out with content-addressed result
  caching);
- ``repro perf`` — engine throughput benchmark (events/s, tasks/s, select
  latency), written to ``BENCH_engine.json``;
- ``repro geo`` — geo-distributed federation: run one multi-region trial,
  or compare routing policies on the identical workload;
- ``repro disrupt`` — disruption & resilience: run a federation trial
  under a seeded schedule of region outages / curtailments / carbon-signal
  blackouts, or compare failover on vs. off vs. undisrupted;
- ``repro stream`` — service mode: drive an open-ended arrival stream in
  O(1) memory (``run``), or re-render a saved report (``report``);
- ``repro obs`` — render a collected metrics snapshot (``report``) or
  build the static HTML dashboard (``dashboard``).

Cross-cutting: ``--obs`` on ``run`` / ``perf`` / ``campaign`` / ``geo`` /
``disrupt`` collects metrics + spans during the command and writes
``metrics.jsonl`` / ``trace.json`` under ``--obs-dir``; the top-level
``--log-level`` flag configures ``repro``'s stderr logging. Errors go to
stderr with a non-zero exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.carbon.grids import GRID_CODES, GRID_SPECS
from repro.experiments.runner import (
    SCHEDULER_NAMES,
    ExperimentConfig,
    run_matchup,
)
from repro.obs.observer import (
    DEFAULT_OBS_DIR,
    LOG_LEVELS,
    METRICS_FILENAME,
    collecting,
    configure_logging,
)
from repro.workloads.batch import WorkloadSpec


def _error(message: str) -> None:
    """CLI error line: stderr, so piped stdout output stays parseable."""
    print(message, file=sys.stderr)


def _add_common_experiment_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--grid", default="DE", choices=GRID_CODES)
    parser.add_argument("--executors", type=int, default=25)
    parser.add_argument("--jobs", type=int, default=20)
    parser.add_argument(
        "--family", default="tpch", choices=("tpch", "alibaba")
    )
    parser.add_argument("--interarrival", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--mode", default="standalone", choices=("standalone", "kubernetes")
    )


def _experiment_config(args: argparse.Namespace, **overrides) -> ExperimentConfig:
    params = dict(
        grid=args.grid,
        num_executors=args.executors,
        mode=args.mode,
        workload=WorkloadSpec(
            family=args.family,
            num_jobs=args.jobs,
            mean_interarrival=args.interarrival,
        ),
        seed=args.seed,
    )
    params.update(overrides)
    return ExperimentConfig(**params)


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.experiments.tables import format_table1, table1_rows

    print(format_table1(table1_rows(hours=args.hours)))
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    """``table2`` / ``table3``: the table's campaign spec, run inline."""
    from repro.campaign import run_table, table_spec
    from repro.experiments.tables import (
        PAPER_TABLE2,
        PAPER_TABLE3,
        format_metric_table,
    )

    paper = {"table2": PAPER_TABLE2, "table3": PAPER_TABLE3}[args.command]
    spec = table_spec(args.command).scaled(
        num_jobs=args.jobs, num_executors=args.executors
    )
    print(format_metric_table(run_table(spec), paper))
    return 0


def _cmd_fig1(args: argparse.Namespace) -> int:
    from repro.experiments.motivation import fig1_comparison

    print(f"{'policy':<14} {'hours':>7} {'Δcarbon':>9} {'Δtime':>8}")
    for row in fig1_comparison(gamma=args.gamma):
        print(
            f"{row.policy:<14} {row.completion_hours:>7.1f} "
            f"{row.carbon_vs_fifo_pct:>+8.1f}% {row.time_vs_fifo_pct:>+7.1f}%"
        )
    return 0


def _known_schedulers(names: list[str]) -> bool:
    """Whether every name is a scheduler; if not, print the error line."""
    unknown = [n for n in names if n not in SCHEDULER_NAMES]
    if unknown:
        _error(f"unknown schedulers: {unknown}; choose from {SCHEDULER_NAMES}")
    return not unknown


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.simulator.metrics import compare_to_baseline

    names = args.schedulers
    baseline = args.baseline or names[0]
    if baseline not in names:
        names = [baseline] + names
    if not _known_schedulers(names):
        return 2
    config = _experiment_config(args, gamma=args.gamma)
    results = run_matchup(names, config)
    base = results[baseline]
    print(f"{'scheduler':<20} {'carbon_red%':>12} {'ECT':>8} {'JCT':>8}")
    for name, result in results.items():
        m = compare_to_baseline(result, base)
        print(
            f"{name:<20} {m.carbon_reduction_pct:>11.1f}% "
            f"{m.ect_ratio:>8.3f} {m.jct_ratio:>8.3f}"
        )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    """PCAPS's γ or CAP's B against a baseline, as an inline campaign."""
    from repro.campaign import CampaignSpec, run_sweep

    baseline = args.baseline or "decima"
    if args.knob == "gamma":
        scheduler, field_name = "pcaps", "gamma"
        values = tuple(args.values or (0.1, 0.3, 0.5, 0.7, 0.9))
        bad = [v for v in values if not 0.0 <= v <= 1.0]
        bound = "in [0, 1]"
    else:
        scheduler, field_name = f"cap-{baseline}", "cap_min_quota"
        quotas = args.values or (2.0, 4.0, 8.0, 12.0, 16.0)
        bad = [
            v for v in quotas if not (v.is_integer() and 1 <= v <= args.executors)
        ]
        bound = f"whole numbers in [1, {args.executors}] (--executors)"
        values = () if bad else tuple(int(v) for v in quotas)
    if not _known_schedulers([baseline, scheduler]):
        return 2
    if baseline == scheduler:
        _error(f"--baseline {baseline} is the swept scheduler; choose another")
        return 2
    if bad:
        _error(
            f"{args.knob} values must be {bound}; "
            f"got {', '.join(f'{v:g}' for v in bad)}"
        )
        return 2
    spec = CampaignSpec(
        f"sweep-{args.knob}",
        _experiment_config(args),
        axes={"scheduler": (scheduler,), field_name: values},
        baseline=baseline,
    )
    points = run_sweep(spec, field_name)
    print(f"{args.knob:>7} {'carbon_red%':>12} {'ECT':>8} {'JCT':>8}")
    for p in points:
        print(
            f"{p.parameter:>7.2f} {p.carbon_reduction_pct:>11.1f}% "
            f"{p.ect_ratio:>8.3f} {p.jct_ratio:>8.3f}"
        )
    return 0


DEFAULT_CAMPAIGN_STORE = "campaign-results.jsonl"

#: Mirrors ``repro.geo.config.ROUTING_POLICY_NAMES`` as a literal so
#: build_parser never imports the geo subsystem (handlers import lazily);
#: a test pins the two tuples equal.
GEO_ROUTING_CHOICES = (
    "round-robin",
    "queue-aware",
    "carbon-greedy",
    "carbon-forecast",
)


def _campaign_spec(args: argparse.Namespace):
    from repro.campaign import campaign_presets

    presets = campaign_presets()
    if args.name not in presets:
        _error(f"unknown campaign {args.name!r}; choose from {sorted(presets)}")
        return None
    spec = presets[args.name]
    if args.jobs is not None or args.executors is not None:
        if spec.kind.name != "scheduler":
            _error(
                f"--jobs/--executors resize scheduler presets only; "
                f"{spec.name!r} is a {spec.kind.name} campaign"
            )
            return None
        spec = spec.scaled(num_jobs=args.jobs, num_executors=args.executors)
    return spec


def _print_campaign_report(runner, spec) -> None:
    from repro.campaign import campaign_report, format_campaign_report

    records = runner.collect(spec)
    expected = len(runner.keyed_trials(spec))
    rows = campaign_report(records, spec.baseline, spec.kind)
    title = (
        f"campaign {spec.name!r} — {len(records)}/{expected} trials in store, "
        f"baseline {spec.baseline or '(absolute metrics)'}"
    )
    print(format_campaign_report(rows, title=title))
    _print_trial_health(records)


def _print_trial_health(records) -> None:
    """Surface failed and flaky trials under a report (attempt counts and
    last-failure summaries), so retries are visible rather than averaged
    over."""
    failed = [r for r in records if not r.ok]
    flaky = [r for r in records if r.ok and r.attempts > 1]
    for record in failed:
        print(
            f"  FAILED {record.key[:12]} after {record.attempts} attempt(s): "
            f"{record.error}"
        )
    for record in flaky:
        last = (record.attempt_errors or ["?"])[-1]
        print(
            f"  flaky  {record.key[:12]}: ok on attempt {record.attempts} "
            f"(last failure: {last})"
        )


def _cmd_campaign_list(args: argparse.Namespace) -> int:
    from repro.campaign import campaign_presets

    print(
        f"{'campaign':<15} {'kind':<10} {'trials':>6}  {'axes':<42} description"
    )
    for name, spec in campaign_presets().items():
        print(
            f"{name:<15} {spec.kind.name:<10} {len(spec.trials()):>6}  "
            f"{spec.axis_summary():<42} {spec.description}"
        )
    return 0


def _supervisor_from_args(args: argparse.Namespace):
    from repro.campaign import SupervisorConfig

    return SupervisorConfig(
        trial_timeout_s=args.trial_timeout, max_attempts=args.max_attempts
    )


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    """``campaign run|resume``: one runner, one store, one report for every
    trial kind."""
    from repro.campaign import CampaignInterrupted, CampaignRunner, ResultStore

    spec = _campaign_spec(args)
    if spec is None:
        return 2
    resume = not args.no_resume
    if args.cmd == "resume" and not ResultStore(args.store).path.exists():
        _error(f"nothing to resume: store {args.store!r} does not exist")
        return 2
    runner = CampaignRunner(
        ResultStore(args.store),
        workers=args.workers,
        supervisor=_supervisor_from_args(args),
    )
    print(
        f"campaign {spec.name!r}: {len(runner.keyed_trials(spec))} trials "
        f"({spec.axis_summary()}), store {args.store}"
    )

    def progress(done: int, total: int, line: str) -> None:
        if not args.quiet:
            print(f"[{done:>3}/{total}] {line}")

    try:
        run = runner.run(spec, resume=resume, on_progress=progress)
    except CampaignInterrupted as interrupted:
        # Completed futures were drained into the store before this
        # propagated, so `repro campaign resume` continues from here.
        print(f"interrupted: {interrupted}")
        return 130
    stats = run.stats
    print(
        f"done in {run.wall_time_s:.1f}s: {stats.misses} simulated, "
        f"{stats.hits} cached (cache hit rate {stats.hit_rate:.1%}), "
        f"{len(run.failures)} failed"
    )
    for record in run.failures:
        print(
            f"  FAILED {record.key} after {record.attempts} attempt(s): "
            f"{record.error}"
        )
    _print_campaign_report(runner, spec)
    return 1 if run.failures else 0


def _cmd_campaign_report(args: argparse.Namespace) -> int:
    from repro.campaign import CampaignRunner, ResultStore

    spec = _campaign_spec(args)
    if spec is None:
        return 2
    store = ResultStore(args.store)
    if not store.path.exists():
        _error(f"store {args.store!r} does not exist; run the campaign first")
        return 2
    _print_campaign_report(CampaignRunner(store), spec)
    return 0


def _cmd_campaign_verify(args: argparse.Namespace) -> int:
    from repro.campaign import ResultStore

    store = ResultStore(args.store)
    if not store.path.exists():
        _error(f"store {args.store!r} does not exist")
        return 2
    if args.repair:
        check = store.repair()
        print(check.summary())
        if not check.clean:
            print(
                f"repaired: kept {check.valid_records} valid line(s), "
                f"dropped {len(check.corrupt_lines)} corrupt "
                f"(original saved as {store.path.name}.bak)"
            )
        return 0
    check = store.verify()
    print(check.summary())
    if not check.clean:
        print(
            f"corrupt line number(s): "
            f"{', '.join(str(n) for n in check.corrupt_lines)} "
            f"— run with --repair to rewrite a clean store"
        )
    return 0 if check.clean else 1


def _cmd_campaign(args: argparse.Namespace) -> int:
    handlers = {
        "list": _cmd_campaign_list,
        "run": _cmd_campaign_run,
        "resume": _cmd_campaign_run,
        "report": _cmd_campaign_report,
        "verify": _cmd_campaign_verify,
    }
    return handlers[args.cmd](args)


def _cmd_faults(args: argparse.Namespace) -> int:
    """``repro faults demo``: run a tiny campaign while seeded crashes,
    hangs, and torn store writes fire, then verify/repair/resume."""
    import tempfile
    from pathlib import Path

    from repro import faults
    from repro.campaign import (
        CampaignRunner,
        CampaignSpec,
        ResultStore,
        SupervisorConfig,
    )
    from repro.experiments.runner import ExperimentConfig
    from repro.obs.observer import collecting
    from repro.workloads.batch import WorkloadSpec

    base = ExperimentConfig(
        scheduler="fifo",
        num_executors=4,
        workload=WorkloadSpec(num_jobs=4),
        trace_hours=24,
    )
    spec = CampaignSpec(
        "faults-demo",
        base,
        axes={"scheduler": ("fifo", "pcaps")},
        description="fault-injection demo",
    )
    supervisor = SupervisorConfig(trial_timeout_s=2.0, max_attempts=4)
    workdir = Path(args.store).parent if args.store else Path(tempfile.mkdtemp())
    store_path = Path(args.store) if args.store else workdir / "faults-demo.jsonl"

    counters = (
        "campaign.retries",
        "campaign.timeouts",
        "campaign.quarantines",
        "campaign.pool_rebuilds",
        "store.corrupt_lines_skipped",
    )
    plan = faults.FaultPlan(
        seed=args.seed,
        rules=(
            # Every trial's first attempt crashes its worker; second
            # attempts hang past the 2s timeout; third attempts run clean.
            faults.FaultRule(kind="crash", occasions=(1,)),
            faults.FaultRule(kind="hang", occasions=(2,), hang_s=30.0),
            # The first append of every key tears mid-line.
            faults.FaultRule(kind="torn-write", occasions=(1,)),
        ),
    )
    print(f"fault plan (seed {args.seed}): crash@1, hang@2, torn-write@1")
    print(f"store: {store_path}")

    print("\n[1/4] supervised run under injection (workers=2)")
    with collecting("faults-demo") as observer:
        with faults.injecting(plan), faults.torn_store_writes():
            runner = CampaignRunner(
                ResultStore(store_path), workers=2, supervisor=supervisor
            )
            run = runner.run(
                spec,
                on_progress=lambda d, t, line: print(f"  [{d}/{t}] {line}"),
            )
        print(f"  run completed: {len(run.records)} record(s), "
              f"{len(run.failures)} quarantined")
        store = ResultStore(store_path)
        store.records()  # count corrupt lines into the obs counter
        for name in counters:
            try:
                value = observer.registry.value(name)
            except KeyError:  # counter never fired this run
                value = 0
            print(f"  {name} = {value}")

    print("\n[2/4] verify (torn lines expected)")
    check = store.verify()
    print(f"  {check.summary()}")

    print("\n[3/4] repair (original kept as .bak)")
    print(f"  {store.repair().summary()}")

    print("\n[4/4] resume with injection off — torn trials re-run")
    runner = CampaignRunner(ResultStore(store_path), workers=0, supervisor=supervisor)
    resumed = runner.run(
        spec, on_progress=lambda d, t, line: print(f"  [{d}/{t}] {line}")
    )
    final = store.verify()
    print(f"  {final.summary()}")
    healthy = final.clean and not resumed.failures
    print(f"\ndemo {'ok' if healthy else 'FAILED'}: every recovery path exercised")
    return 0 if healthy else 1


def _cmd_perf(args: argparse.Namespace) -> int:
    from repro.experiments.perf import (
        build_scenarios,
        format_report,
        measure_campaign_throughput,
        run_scenario,
        smoke_scenarios,
        write_report,
    )

    if args.smoke:
        scenarios = smoke_scenarios()
    else:
        scenarios = build_scenarios(
            schedulers=tuple(args.schedulers),
            job_counts=tuple(args.jobs),
            num_executors=args.executors,
        )
    measurements = []
    for scenario in scenarios:
        if not args.quiet:
            print(f"running {scenario.name} ...", flush=True)
        measurements.append(run_scenario(scenario, collect_cache_stats=True))
    campaign = None
    if not args.no_campaign:
        if not args.quiet:
            print("running campaign-throughput (smoke preset) ...", flush=True)
        campaign = measure_campaign_throughput()
    print(format_report(measurements))
    if campaign is not None:
        print(
            f"campaign throughput: {campaign['trials_per_min']:.1f} "
            f"trials/min ({campaign['trials']} trials in "
            f"{campaign['wall_s']:.1f}s, preset {campaign['preset']!r})"
        )
    write_report(measurements, args.output, campaign_throughput=campaign)
    print(f"wrote {args.output}")
    return 0


def _geo_config(args: argparse.Namespace):
    from repro.geo import FederationConfig, RegionConfig

    grids = [g.strip().upper() for g in args.regions.split(",") if g.strip()]
    unknown = [g for g in grids if g not in GRID_CODES]
    if unknown:
        _error(f"unknown grids: {unknown}; choose from {GRID_CODES}")
        return None
    origin = args.origin.strip().lower() if args.origin else None
    member_names = [g.lower() for g in grids]
    if origin is not None and origin not in member_names:
        _error(f"unknown origin region {args.origin!r}; "
               f"choose from {member_names}")
        return None
    try:
        regions = tuple(
            RegionConfig(
                name=grid.lower(),
                grid=grid,
                scheduler=args.scheduler,
                num_executors=args.executors,
            )
            for grid in grids
        )
        return FederationConfig(
            regions=regions,
            # `compare` runs every policy and has no --routing flag.
            routing=getattr(args, "routing", "round-robin"),
            workload=WorkloadSpec(
                family=args.family,
                num_jobs=args.jobs,
                mean_interarrival=args.interarrival,
            ),
            seed=args.seed,
            origin_region=origin,
        )
    except ValueError as exc:  # e.g. duplicate or empty --regions
        _error(f"invalid federation: {exc}")
        return None


def _print_federation(result) -> None:
    print(f"routing {result.routing!r}: {result.num_jobs} jobs, "
          f"{result.moved_jobs()} moved cross-region")
    print(f"  {'region':<8} {'grid':<6} {'jobs':>5} {'carbon_g':>10} {'ECT':>9}")
    for name, grid, jobs, carbon_g, ect in result.region_rows():
        print(f"  {name:<8} {grid:<6} {jobs:>5} {carbon_g:>10.1f} {ect:>9.1f}")
    print(
        f"  total {result.total_carbon_g:.1f} g "
        f"(compute {result.compute_carbon_g:.1f} + "
        f"transfer {result.transfer_carbon_g:.1f}), "
        f"ECT {result.ect:.1f}s, avg JCT {result.avg_jct:.1f}s, "
        f"avg stretch {result.avg_stretch:.2f}"
    )


def _cmd_geo_run(args: argparse.Namespace) -> int:
    from repro.geo import run_federation

    config = _geo_config(args)
    if config is None:
        return 2
    _print_federation(run_federation(config))
    return 0


def _cmd_geo_compare(args: argparse.Namespace) -> int:
    from repro.experiments.federation import run_routing_matchup
    from repro.geo import ROUTING_POLICY_NAMES, compare_federations

    config = _geo_config(args)
    if config is None:
        return 2
    results = run_routing_matchup(config, ROUTING_POLICY_NAMES)
    base = results[args.baseline]
    print(
        f"{'routing':<18} {'carbon_g':>10} {'carbon_red%':>12} "
        f"{'ECT':>8} {'JCT':>8} {'stretch':>8} {'moved':>6}"
    )
    for name, result in results.items():
        m = compare_federations(result, base)
        print(
            f"{name:<18} {result.total_carbon_g:>10.1f} "
            f"{m.carbon_reduction_pct:>11.1f}% {m.ect_ratio:>8.3f} "
            f"{m.jct_ratio:>8.3f} {m.stretch_ratio:>8.3f} "
            f"{result.moved_jobs():>6}"
        )
    return 0


def _cmd_geo(args: argparse.Namespace) -> int:
    handlers = {
        "run": _cmd_geo_run,
        "compare": _cmd_geo_compare,
    }
    return handlers[args.cmd](args)


def _disrupt_schedule(args: argparse.Namespace, config):
    from repro.disrupt import DisruptionSchedule

    return DisruptionSchedule.generate(
        seed=args.disrupt_seed,
        regions=config.region_names(),
        horizon_s=args.horizon,
        num_outages=args.outages,
        mean_outage_s=args.outage_seconds,
        num_curtailments=args.curtailments,
        num_blackouts=args.blackouts,
    )


def _cmd_disrupt_run(args: argparse.Namespace) -> int:
    from repro.disrupt import federation_disruption_report
    from repro.geo import run_federation

    config = _geo_config(args)
    if config is None:
        return 2
    schedule = _disrupt_schedule(args, config)
    if not schedule:
        _error("generated schedule is empty; raise --outages/--curtailments")
        return 2
    result = run_federation(
        config.with_disruptions(
            schedule, failover=not args.no_failover,
            migrate=not args.no_migrate,
        )
    )
    print(f"{len(schedule)} disruption events:")
    for event in schedule.events:
        extra = (
            f" keep={event.capacity_fraction:.0%}"
            if event.kind == "curtailment"
            else ""
        )
        print(
            f"  {event.kind:<16} {event.region:<8} "
            f"[{event.start:>7.1f}, {event.end:>7.1f}){extra}"
        )
    _print_federation(result)
    report = federation_disruption_report(result, schedule)
    print(
        f"  resilience: {report.preempted_tasks} preempted "
        f"({report.wasted_executor_s:.1f} exec-s wasted, "
        f"goodput {report.goodput:.3f}), "
        f"{report.rerouted_jobs} rerouted, {report.migrated_jobs} migrated "
        f"(+{report.failover_transfer_g:.1f} g transfer), "
        f"mean recovery {report.mean_recovery_latency_s:.1f}s"
    )
    return 0


def _cmd_disrupt_compare(args: argparse.Namespace) -> int:
    from repro.experiments.disrupt import (
        disruption_matchup_reports,
        format_disruption_matchup,
        matchup_deadline,
        run_disruption_matchup,
    )

    config = _geo_config(args)
    if config is None:
        return 2
    schedule = _disrupt_schedule(args, config)
    if not schedule:
        _error("generated schedule is empty; raise --outages/--curtailments")
        return 2
    results = run_disruption_matchup(config, schedule)
    reports = disruption_matchup_reports(results, schedule)
    deadline = matchup_deadline(results)
    print(
        f"{len(schedule)} disruption events, on-time deadline "
        f"{deadline:.1f}s (1.25x undisrupted ECT)"
    )
    print(format_disruption_matchup(results, reports, deadline))
    return 0


def _cmd_disrupt(args: argparse.Namespace) -> int:
    handlers = {
        "run": _cmd_disrupt_run,
        "compare": _cmd_disrupt_compare,
    }
    return handlers[args.cmd](args)


def _cmd_stream_run(args: argparse.Namespace) -> int:
    from repro.stream import (
        ServiceConfig,
        ServiceRunner,
        format_stream_report,
    )
    from repro.workloads.stream import StreamSpec

    if args.jobs is None and args.horizon is None:
        _error("bound the run with --jobs and/or --horizon")
        return 2
    experiment = ExperimentConfig(
        scheduler=args.scheduler,
        grid=args.grid,
        num_executors=args.executors,
        gamma=args.gamma,
        seed=args.seed,
    )
    stream = StreamSpec(
        family=args.family,
        mean_interarrival=args.interarrival,
        tpch_scales=tuple(args.scales),
        seed=args.seed,
        max_jobs=args.jobs,
        horizon_s=args.horizon,
        gc_policy=args.gc_policy,
    )
    config = ServiceConfig(
        experiment=experiment,
        stream=stream,
        window_s=args.window,
        epoch_events=args.epoch_events,
        checkpoint_every_epochs=(
            args.checkpoint_every if args.checkpoint_dir else 0
        ),
        checkpoint_dir=args.checkpoint_dir,
    )

    def progress(runner: ServiceRunner) -> None:
        if not args.quiet:
            print(
                f"[epoch {runner.epochs:>4}] "
                f"arrived={runner.aggregator.jobs_arrived} "
                f"done={runner.aggregator.jobs_completed} "
                f"active={runner.jobs_active}",
                file=sys.stderr,
            )

    report = ServiceRunner(config, on_epoch=progress).run(
        max_epochs=args.max_epochs
    )
    print(format_stream_report(report))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.output}")
    return 0


def _cmd_stream_report(args: argparse.Namespace) -> int:
    from repro.stream import StreamReport, format_stream_report

    if not os.path.exists(args.input):
        _error(
            f"no stream report at {args.input!r}; run "
            "'repro stream run --output <path>' first"
        )
        return 2
    with open(args.input, encoding="utf-8") as fh:
        report = StreamReport.from_dict(json.load(fh))
    print(format_stream_report(report))
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    handlers = {
        "run": _cmd_stream_run,
        "report": _cmd_stream_report,
    }
    return handlers[args.cmd](args)


def _cmd_obs_report(args: argparse.Namespace) -> int:
    from repro.obs.report import render_report

    metrics = args.metrics
    if os.path.isdir(metrics):
        # Directory given: resolve the conventional snapshot inside it.
        metrics = os.path.join(metrics, METRICS_FILENAME)
    if not os.path.exists(metrics):
        _error(
            f"no metrics snapshot at {metrics!r}; run a command with --obs "
            f"first (writes <obs-dir>/{METRICS_FILENAME})"
        )
        return 2
    try:
        rendered = render_report(metrics)
    except (OSError, ValueError, KeyError) as exc:
        _error(f"unreadable metrics snapshot {metrics!r}: {exc}")
        return 2
    print(rendered)
    return 0


def _cmd_obs_dashboard(args: argparse.Namespace) -> int:
    from repro.obs.dashboard import build_dashboard

    # Inputs the user *named* must exist — a typo'd path silently rendering
    # an empty panel is worse than an error. Discovered defaults (no flag
    # given) stay tolerant: absence just means nothing to show yet.
    for directory in args.obs_dir or []:
        if not os.path.exists(os.path.join(directory, METRICS_FILENAME)):
            _error(
                f"obs dir {directory!r} has no {METRICS_FILENAME}; run a "
                "command with --obs first"
            )
            return 2
    path = build_dashboard(
        output=args.output,
        bench_paths=args.bench,
        store_paths=args.store,
        obs_dirs=args.obs_dir,
    )
    print(f"wrote {path}")
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    handlers = {
        "report": _cmd_obs_report,
        "dashboard": _cmd_obs_dashboard,
    }
    return handlers[args.cmd](args)


def _cmd_grids(args: argparse.Namespace) -> int:
    print(f"{'grid':<7} {'description':<55} {'mean':>6} {'cov':>6}")
    for code in GRID_CODES:
        spec = GRID_SPECS[code]
        print(
            f"{code:<7} {spec.description:<55} {spec.mean:>6.0f} "
            f"{spec.coeff_var:>6.3f}"
        )
    return 0


def _positive(type_):
    """An argparse ``type`` taking values of ``type_`` above zero, so a bad
    supervisor value is a usage error, not a traceback."""

    def parse(text: str):
        value = type_(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text}")
        return value

    parse.__name__ = type_.__name__  # argparse's "invalid int value" message
    return parse


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--obs", action="store_true",
        help="collect metrics + spans during this command "
        "(fingerprint-neutral; see docs/observability.md)",
    )
    parser.add_argument(
        "--obs-dir", default=DEFAULT_OBS_DIR,
        help="directory for metrics.jsonl / trace.json (with --obs)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction CLI for 'Carbon- and Precedence-Aware "
        "Scheduling for Data Processing Clusters' (SIGCOMM 2025)",
    )
    parser.add_argument(
        "--log-level", default=None, choices=LOG_LEVELS,
        help="configure 'repro' stderr logging for this invocation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="Table 1: grid trace statistics")
    p.add_argument("--hours", type=int, default=26_304)
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("table2", help="Table 2: prototype-mode top line")
    p.add_argument("--jobs", type=int, default=25)
    p.add_argument("--executors", type=int, default=40)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("table3", help="Table 3: simulator-mode top line")
    p.add_argument("--jobs", type=int, default=25)
    p.add_argument("--executors", type=int, default=40)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("fig1", help="Figure 1: motivating example")
    p.add_argument("--gamma", type=float, default=0.5)
    p.set_defaults(func=_cmd_fig1)

    p = sub.add_parser("run", help="run a scheduler matchup")
    _add_common_experiment_args(p)
    p.add_argument(
        "schedulers", nargs="+", metavar="SCHEDULER",
        help=f"one or more of {', '.join(SCHEDULER_NAMES)}",
    )
    p.add_argument("--baseline", default=None)
    p.add_argument("--gamma", type=float, default=0.5)
    _add_obs_args(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="sweep PCAPS gamma or CAP B")
    _add_common_experiment_args(p)
    p.add_argument("knob", choices=("gamma", "B"))
    p.add_argument(
        "--values", type=float, nargs="+", default=None,
        help="knob values (gammas, or integer quotas for B)",
    )
    p.add_argument("--baseline", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("grids", help="list the modelled power grids")
    p.set_defaults(func=_cmd_grids)

    p = sub.add_parser(
        "perf",
        help="engine throughput benchmark (events/s, tasks/s, select latency)",
    )
    p.add_argument(
        "--smoke", action="store_true",
        help="seconds-scale CI grid instead of the full scheduler sweep",
    )
    p.add_argument(
        "--output", default="BENCH_engine.json",
        help="where to write the measurement JSON",
    )
    p.add_argument(
        "--schedulers", nargs="+", default=["fifo", "decima", "pcaps"],
        help="schedulers to time (full mode only)",
    )
    p.add_argument(
        "--jobs", type=int, nargs="+", default=[50, 100, 200],
        help="batch sizes to time (full mode only)",
    )
    p.add_argument("--executors", type=int, default=50)
    p.add_argument(
        "--no-campaign", action="store_true",
        help="skip the campaign-throughput (trials/min) measurement",
    )
    p.add_argument("--quiet", action="store_true")
    _add_obs_args(p)
    p.set_defaults(func=_cmd_perf)

    p = sub.add_parser(
        "campaign",
        help="parallel experiment campaigns with cached, resumable results",
    )
    campaign_sub = p.add_subparsers(dest="cmd", required=True)

    c = campaign_sub.add_parser("list", help="list the named campaign presets")
    c.set_defaults(func=_cmd_campaign)

    def _add_campaign_target(c: argparse.ArgumentParser, with_exec: bool) -> None:
        c.add_argument("name", help="campaign preset name (see 'campaign list')")
        c.add_argument(
            "--store", default=DEFAULT_CAMPAIGN_STORE,
            help="JSONL result store path",
        )
        c.add_argument(
            "--jobs", type=int, default=None,
            help="override the base workload's batch size",
        )
        c.add_argument(
            "--executors", type=int, default=None,
            help="override the base cluster size",
        )
        if with_exec:
            c.add_argument(
                "--workers", type=int, default=None,
                help="process-pool size (default: CPU count; 0/1 = inline)",
            )
            c.add_argument(
                "--quiet", action="store_true", help="suppress per-trial lines"
            )
            c.add_argument(
                "--trial-timeout", type=_positive(float), default=None,
                metavar="SECONDS",
                help="per-attempt wall-clock budget; a worker past it is "
                "presumed hung and the trial is retried (default: none)",
            )
            c.add_argument(
                "--max-attempts", type=_positive(int), default=2,
                help="attempt budget per trial before quarantine (default: 2)",
            )
            _add_obs_args(c)

    c = campaign_sub.add_parser(
        "run", help="run a campaign (skips trials already in the store)"
    )
    _add_campaign_target(c, with_exec=True)
    c.add_argument(
        "--no-resume", action="store_true",
        help="re-run every trial even if the store already has it",
    )
    c.set_defaults(func=_cmd_campaign)

    c = campaign_sub.add_parser(
        "resume", help="continue an interrupted campaign from its store"
    )
    _add_campaign_target(c, with_exec=True)
    c.set_defaults(func=_cmd_campaign, no_resume=False)

    c = campaign_sub.add_parser(
        "report", help="aggregate a campaign's table from the store alone"
    )
    _add_campaign_target(c, with_exec=False)
    c.set_defaults(func=_cmd_campaign)

    c = campaign_sub.add_parser(
        "verify",
        help="check a result store for torn/corrupt lines; --repair "
        "rewrites a clean store keeping a .bak",
    )
    c.add_argument(
        "--store", default=DEFAULT_CAMPAIGN_STORE,
        help="JSONL result store path",
    )
    c.add_argument(
        "--repair", action="store_true",
        help="rewrite the store without its corrupt lines "
        "(original saved alongside as .bak)",
    )
    c.set_defaults(func=_cmd_campaign)

    p = sub.add_parser(
        "faults",
        help="deterministic fault injection: chaos-test the campaign "
        "resilience layer",
    )
    faults_sub = p.add_subparsers(dest="cmd", required=True)
    f = faults_sub.add_parser(
        "demo",
        help="run a tiny campaign under seeded crashes, hangs, and torn "
        "store writes, then verify/repair/resume",
    )
    f.add_argument("--seed", type=int, default=0, help="fault-plan seed")
    f.add_argument(
        "--store", default=None,
        help="store path for the demo (default: a temp directory)",
    )
    f.set_defaults(func=_cmd_faults)

    p = sub.add_parser(
        "geo",
        help="geo-distributed federation: multi-region carbon-aware routing",
    )
    geo_sub = p.add_subparsers(dest="cmd", required=True)

    def _add_geo_federation_args(
        g: argparse.ArgumentParser, with_routing: bool = True
    ) -> None:
        g.add_argument(
            "--regions", default=",".join(GRID_CODES),
            help="comma-separated grid codes, one region per grid",
        )
        if with_routing:
            g.add_argument(
                "--routing", default="carbon-forecast",
                choices=GEO_ROUTING_CHOICES,
            )
        g.add_argument(
            "--scheduler", default="pcaps", choices=SCHEDULER_NAMES,
            help="intra-cluster scheduler used by every region",
        )
        g.add_argument("--executors", type=int, default=10,
                       help="executors per region")
        g.add_argument("--jobs", type=int, default=18)
        g.add_argument("--family", default="tpch", choices=("tpch", "alibaba"))
        g.add_argument("--interarrival", type=float, default=20.0)
        g.add_argument("--seed", type=int, default=0)
        g.add_argument(
            "--origin", default=None,
            help="pin every job's origin region (default: seeded uniform)",
        )
        _add_obs_args(g)

    g = geo_sub.add_parser("run", help="run one federation trial")
    _add_geo_federation_args(g)
    g.set_defaults(func=_cmd_geo)

    g = geo_sub.add_parser(
        "compare",
        help="all routing policies on the identical workload, normalized",
    )
    _add_geo_federation_args(g, with_routing=False)
    g.add_argument(
        "--baseline", default="round-robin", choices=GEO_ROUTING_CHOICES
    )
    g.set_defaults(func=_cmd_geo)

    p = sub.add_parser(
        "disrupt",
        help="disruption & resilience: outages, curtailment, failover routing",
    )
    disrupt_sub = p.add_subparsers(dest="cmd", required=True)

    def _add_disruption_args(d: argparse.ArgumentParser) -> None:
        d.add_argument(
            "--disrupt-seed", type=int, default=7,
            help="seed for the generated disruption schedule",
        )
        d.add_argument(
            "--horizon", type=float, default=900.0,
            help="window (simulated s) disruption starts are drawn from",
        )
        d.add_argument("--outages", type=int, default=2)
        d.add_argument(
            "--outage-seconds", type=float, default=600.0,
            help="mean outage duration (exponential)",
        )
        d.add_argument("--curtailments", type=int, default=1)
        d.add_argument("--blackouts", type=int, default=1)

    d = disrupt_sub.add_parser(
        "run", help="one disrupted federation trial, with resilience report"
    )
    _add_geo_federation_args(d)
    _add_disruption_args(d)
    d.add_argument(
        "--no-failover", action="store_true",
        help="do not route around down regions",
    )
    d.add_argument(
        "--no-migrate", action="store_true",
        help="do not relocate queued jobs at outages",
    )
    d.set_defaults(func=_cmd_disrupt)

    d = disrupt_sub.add_parser(
        "compare",
        help="undisrupted vs no-failover vs failover on the identical trial",
    )
    _add_geo_federation_args(d)
    _add_disruption_args(d)
    d.set_defaults(func=_cmd_disrupt)

    p = sub.add_parser(
        "stream",
        help="service mode: open-ended arrival streams in O(1) memory",
    )
    stream_sub = p.add_subparsers(dest="cmd", required=True)

    s = stream_sub.add_parser(
        "run", help="drive a bounded service run and print its report"
    )
    s.add_argument("--scheduler", default="pcaps", choices=SCHEDULER_NAMES)
    s.add_argument("--grid", default="DE", choices=GRID_CODES)
    s.add_argument("--executors", type=int, default=16)
    s.add_argument("--family", default="tpch", choices=("tpch", "alibaba"))
    s.add_argument(
        "--jobs", type=int, default=None,
        help="stop the stream after this many jobs",
    )
    s.add_argument(
        "--horizon", type=float, default=None,
        help="stop admitting arrivals after this simulated time (s)",
    )
    s.add_argument("--interarrival", type=float, default=20.0)
    s.add_argument(
        "--scales", type=int, nargs="+", default=[2],
        help="TPC-H data scales sampled per job",
    )
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--gamma", type=float, default=0.5)
    s.add_argument(
        "--gc-policy", default="retire", choices=("retire", "keep"),
        help="retire finished jobs in flight (O(1) memory) or keep them",
    )
    s.add_argument(
        "--window", type=float, default=600.0,
        help="recent-history window width (simulated s)",
    )
    s.add_argument("--epoch-events", type=int, default=4096)
    s.add_argument(
        "--max-epochs", type=int, default=None,
        help="stop early after this many epochs (default: run to drain)",
    )
    s.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="write rolling service checkpoints into DIR",
    )
    s.add_argument(
        "--checkpoint-every", type=int, default=8, metavar="EPOCHS",
        help="epochs between checkpoints (with --checkpoint-dir)",
    )
    s.add_argument(
        "--output", default=None,
        help="also write the report JSON here (for 'stream report')",
    )
    s.add_argument("--quiet", action="store_true")
    _add_obs_args(s)
    s.set_defaults(func=_cmd_stream)

    s = stream_sub.add_parser(
        "report", help="re-render a saved service-run report"
    )
    s.add_argument(
        "--input", default="stream-report.json",
        help="report JSON written by 'stream run --output'",
    )
    s.set_defaults(func=_cmd_stream)

    p = sub.add_parser(
        "obs",
        help="observability: render metrics snapshots, build the dashboard",
    )
    obs_sub = p.add_subparsers(dest="cmd", required=True)

    o = obs_sub.add_parser(
        "report", help="render a collected metrics snapshot as text"
    )
    o.add_argument(
        "--metrics",
        default=os.path.join(DEFAULT_OBS_DIR, METRICS_FILENAME),
        help="metrics JSONL snapshot written by a --obs run",
    )
    o.set_defaults(func=_cmd_obs)

    o = obs_sub.add_parser(
        "dashboard",
        help="build the static HTML dashboard (stdlib only, no server)",
    )
    o.add_argument(
        "--output", default=os.path.join("dashboard", "index.html"),
        help="where to write the dashboard HTML",
    )
    o.add_argument(
        "--bench", nargs="*", default=None,
        help="BENCH_*.json files to chart (default: BENCH_*.json in cwd)",
    )
    o.add_argument(
        "--store", nargs="*", default=None,
        help="campaign result stores to aggregate "
        f"(default: {DEFAULT_CAMPAIGN_STORE} if present)",
    )
    o.add_argument(
        "--obs-dir", nargs="*", default=None,
        help="obs artifact directories to include "
        f"(default: {DEFAULT_OBS_DIR} if present)",
    )
    o.set_defaults(func=_cmd_obs)

    return parser


def _obs_label(args: argparse.Namespace) -> str:
    sub = getattr(args, "cmd", None)
    return f"{args.command} {sub}" if sub else str(args.command)


def _dispatch(args: argparse.Namespace) -> int:
    """Run the selected handler, under an observer when ``--obs`` is set."""
    if not getattr(args, "obs", False):
        return args.func(args)
    label = _obs_label(args)
    with collecting(label) as observer:
        with observer.tracer.span(f"repro {label}", cat="cli"):
            code = args.func(args)
    metrics_path, trace_path = observer.write_artifacts(args.obs_dir)
    print(f"obs: wrote {metrics_path} and {trace_path}", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.log_level is not None:
        configure_logging(args.log_level)
    try:
        return _dispatch(args)
    except BrokenPipeError:
        # e.g. `repro campaign run ... | head`: the reader closed the pipe
        # mid-report. Swallow the noise and let the interpreter exit cleanly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via tests
    sys.exit(main())
