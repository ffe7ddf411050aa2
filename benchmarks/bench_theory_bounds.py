"""Theory benches: Theorems 4.3-4.6, Figure 21's bound, and ablations.

- Theorem 4.4/4.6: the carbon-savings decomposition is an identity — we
  verify predicted == measured on real schedules.
- Theorem 4.5 / Figure 21: ``OPT_M <= (K/M) OPT_K`` on exact schedules of
  random DAGs, and CAP's measured stretch stays below the analytic CSF.
- Ablations of this reproduction's own choices, where the paper leaves room:
  Ψ shape (exponential vs linear), PCAPS parallelism mode (see
  ``PCAPSScheduler``'s ``parallelism_mode``), and the forecast lookahead
  window.
"""

import numpy as np

from repro.carbon.api import CarbonIntensityAPI
from repro.carbon.grids import synthesize_trace
from repro.core.analysis import (
    cap_stretch_factor,
    savings_decomposition,
)
from repro.core.pcaps import PCAPSScheduler
from repro.dag.graph import JobDAG, Stage
from repro.experiments.runner import ExperimentConfig, run_experiment, run_matchup
from repro.schedulers.decima import DecimaScheduler
from repro.schedulers.optimal import optimal_time_schedule
from repro.simulator.engine import ClusterConfig, Simulation
from repro.simulator.metrics import compare_to_baseline
from repro.workloads.batch import WorkloadSpec, build_workload

from _report import emit, run_once


def _random_single_task_dag(rng, n):
    stages = []
    for sid in range(n):
        parents = tuple(
            int(p) for p in np.unique(rng.integers(0, sid, size=rng.integers(0, 3)))
        ) if sid else ()
        stages.append(Stage(sid, 1, float(rng.integers(1, 4)), parents=parents))
    return JobDAG(stages)


def test_fig21_machine_scaling_bound(benchmark):
    """``OPT_M(J) <= (K/M) * OPT_K(J)`` (Appendix B.2.1, Fig. 21)."""

    def measure():
        rng = np.random.default_rng(0)
        rows = []
        for trial in range(6):
            dag = _random_single_task_dag(rng, n=int(rng.integers(5, 8)))
            flat = [1.0] * 64
            opt_k = optimal_time_schedule(dag, 4, flat).makespan_steps
            opt_m = optimal_time_schedule(dag, 2, flat).makespan_steps
            rows.append((trial, opt_m, opt_k, (4 / 2) * opt_k))
        return rows

    rows = run_once(benchmark, measure)
    lines = [f"{'trial':>5} {'OPT_2':>6} {'OPT_4':>6} {'(K/M)OPT_4':>11}"]
    for trial, opt_m, opt_k, bound in rows:
        lines.append(f"{trial:>5} {opt_m:>6} {opt_k:>6} {bound:>11.1f}")
        assert opt_m <= bound + 1e-9
        assert opt_k <= opt_m  # more machines never hurt
    emit("Figure 21 — OPT_M <= (K/M)·OPT_K on exact schedules", lines)


def test_theorem_44_savings_identity(benchmark):
    """Predicted savings W(s- - s+ - c_tail) equals measured savings."""

    def measure():
        config = ExperimentConfig(
            grid="DE",
            num_executors=16,
            workload=WorkloadSpec(family="tpch", num_jobs=10),
            trace_hours=2000,
            seed=3,
        )
        results = run_matchup(["decima", "pcaps"], config)
        return savings_decomposition(results["decima"], results["pcaps"])

    d = run_once(benchmark, measure)
    emit(
        "Theorem 4.4 — savings decomposition (PCAPS vs Decima)",
        [
            f"W (excess work):      {d.excess_work:12.1f} executor-seconds",
            f"s- (avoided @):       {d.s_minus:12.1f} gCO2/kWh",
            f"s+ (opportunistic @): {d.s_plus:12.1f} gCO2/kWh",
            f"c_tail (make-up @):   {d.c_tail:12.1f} gCO2/kWh",
            f"predicted savings:    {d.predicted_savings:12.3e}",
            f"measured savings:     {d.measured_savings:12.3e}",
        ],
    )
    benchmark.extra_info["predicted"] = d.predicted_savings
    benchmark.extra_info["measured"] = d.measured_savings
    assert np.isclose(d.predicted_savings, d.measured_savings, rtol=1e-9)


def test_theorem_45_cap_csf_bound(benchmark):
    """CAP's measured makespan stretch stays below the analytic CSF times
    the Graham bound slack (single-job setting of the theorem)."""

    def measure():
        from repro.core.cap import CAPProvisioner
        from repro.schedulers.fifo import KubernetesDefaultScheduler
        from repro.workloads.arrivals import JobSubmission

        trace = synthesize_trace("DE", hours=400, seed=0)
        dag = JobDAG(
            [
                Stage(0, 8, 40.0),
                Stage(1, 6, 30.0, parents=(0,)),
                Stage(2, 4, 20.0, parents=(1,)),
            ]
        )
        K = 8
        rows = []
        for B in (2, 4, 6, 8):
            baseline = Simulation(
                ClusterConfig(num_executors=K, executor_move_delay=0.0),
                KubernetesDefaultScheduler(),
                CarbonIntensityAPI(trace),
            ).run([JobSubmission(0.0, dag, 0)])
            cap = CAPProvisioner(total_executors=K, min_quota=B)
            capped = Simulation(
                ClusterConfig(num_executors=K, executor_move_delay=0.0),
                KubernetesDefaultScheduler(),
                CarbonIntensityAPI(trace),
                provisioner=cap,
            ).run([JobSubmission(0.0, dag, 0)])
            m_seen = cap.min_quota_seen()
            stretch = capped.ect / baseline.ect
            rows.append((B, m_seen, stretch, cap_stretch_factor(K, m_seen)))
        return rows

    rows = run_once(benchmark, measure)
    lines = [f"{'B':>3} {'M(B,c)':>7} {'measured':>9} {'CSF bound':>10}"]
    for B, m_seen, stretch, csf in rows:
        lines.append(f"{B:>3} {m_seen:>7} {stretch:>9.3f} {csf:>10.3f}")
        # The CSF bounds the *worst-case* stretch; measured stretch must not
        # exceed it by more than deferral slack (one carbon step per wave).
        assert stretch <= max(csf, 1.0) * 1.5 + 0.5
    emit("Theorem 4.5 — CAP carbon stretch factor", lines)


def test_corollary_b1_utilization_profile(benchmark):
    """Corollary B.1's premise: carbon-aware utilization ρ(c) decreases
    with carbon intensity, while a carbon-agnostic scheduler's is flat."""

    def measure():
        from repro.core.analysis import utilization_by_intensity

        # Corollary B.1 assumes outstanding work at all times: submit the
        # whole batch up front so the queue stays saturated.
        config = ExperimentConfig(
            grid="DE",
            num_executors=8,
            workload=WorkloadSpec(
                family="tpch", num_jobs=25, mean_interarrival=1e-6
            ),
            gamma=0.8,
            trace_hours=2500,
            seed=6,
        )
        results = run_matchup(["decima", "pcaps"], config)
        return {
            name: utilization_by_intensity(result, num_bins=4)
            for name, result in results.items()
        }

    profiles = run_once(benchmark, measure)
    lines = []
    slopes = {}
    for name, profile in profiles.items():
        lines.append(f"--- {name}: utilization by carbon-intensity bin")
        for center, utilization in profile:
            bar = "#" * int(round(30 * utilization))
            lines.append(f"  c≈{center:5.0f}: {utilization:5.2f} {bar}")
        xs = np.array([c for c, _ in profile])
        ys = np.array([u for _, u in profile])
        slopes[name] = float(np.polyfit(xs, ys, 1)[0]) if len(xs) > 1 else 0.0
    emit("Corollary B.1 — utilization vs carbon intensity ρ(c)", lines)
    benchmark.extra_info["slopes"] = {
        k: round(v, 6) for k, v in slopes.items()
    }
    # PCAPS throttles harder as carbon rises: its slope is more negative
    # than carbon-agnostic Decima's.
    assert slopes["pcaps"] <= slopes["decima"] + 1e-9


def test_ablation_threshold_shape_and_parallelism(benchmark):
    """Ablations: Ψ shape, parallelism mode, forecast window."""

    def measure():
        config = ExperimentConfig(
            grid="DE",
            num_executors=16,
            workload=WorkloadSpec(family="tpch", num_jobs=10),
            trace_hours=2000,
            seed=4,
        )
        from repro.experiments.runner import carbon_trace_for

        trace = carbon_trace_for(config)
        subs = build_workload(config.workload, seed=config.seed)
        base = run_experiment(config.with_scheduler("decima"), carbon_trace=trace)
        variants = {
            "exponential+decay": PCAPSScheduler(
                DecimaScheduler(seed=0), gamma=0.6
            ),
            "linear+decay": PCAPSScheduler(
                DecimaScheduler(seed=0), gamma=0.6, threshold_shape="linear"
            ),
            "exponential+paper-P": PCAPSScheduler(
                DecimaScheduler(seed=0), gamma=0.6, parallelism_mode="paper"
            ),
            "exponential+no-P": PCAPSScheduler(
                DecimaScheduler(seed=0), gamma=0.6, parallelism_mode="off"
            ),
            "defer-per-sample": PCAPSScheduler(
                DecimaScheduler(seed=0), gamma=0.6, defer_scope="sample"
            ),
        }
        rows = []
        for label, scheduler in variants.items():
            sim = Simulation(
                ClusterConfig(num_executors=16),
                scheduler,
                CarbonIntensityAPI(trace),
            )
            result = sim.run(subs)
            m = compare_to_baseline(result, base)
            rows.append((label, m.carbon_reduction_pct, m.ect_ratio))
        # Forecast-window ablation: 24 h vs 48 h lookahead.
        for lookahead in (24, 48):
            scheduler = PCAPSScheduler(DecimaScheduler(seed=0), gamma=0.6)
            sim = Simulation(
                ClusterConfig(num_executors=16),
                scheduler,
                CarbonIntensityAPI(trace, lookahead_steps=lookahead),
            )
            result = sim.run(subs)
            m = compare_to_baseline(result, base)
            rows.append((f"lookahead-{lookahead}h", m.carbon_reduction_pct, m.ect_ratio))
        return rows

    rows = run_once(benchmark, measure)
    lines = [f"{'variant':<22} {'carbon_red%':>12} {'ECT':>7}"]
    for label, carbon, ect in rows:
        lines.append(f"{label:<22} {carbon:>11.1f}% {ect:>7.3f}")
    emit("Ablations — Ψ shape / parallelism mode / forecast window", lines)
    by = {label: (carbon, ect) for label, carbon, ect in rows}
    benchmark.extra_info["ablations"] = by
    # Linear Ψ is more permissive than exponential (defers less), so it
    # cannot save more carbon than the exponential design.
    assert by["linear+decay"][0] <= by["exponential+decay"][0] + 2.0
    # The literal paper parallelism cap costs extra ECT at equal gamma.
    assert by["exponential+paper-P"][1] >= by["exponential+no-P"][1] - 0.05
