"""Cross-module integration tests: paper-level behavioural claims.

Each test here asserts one qualitative claim from the paper's evaluation at
a miniature scale, exercising the full stack end to end.
"""

import pytest

from repro.core.analysis import (
    cap_stretch_factor,
    deferral_fraction,
    graham_bound,
    min_quota_from_trace,
    pcaps_stretch_factor,
)
from repro.core.cap import CAPProvisioner
from repro.core.pcaps import PCAPSScheduler
from repro.experiments.runner import ExperimentConfig, run_matchup
from repro.schedulers.decima import DecimaScheduler
from repro.schedulers.fifo import KubernetesDefaultScheduler
from repro.simulator.metrics import compare_to_baseline
from repro.workloads.batch import WorkloadSpec
from repro.workloads.arrivals import JobSubmission
from repro.dag.graph import JobDAG, Stage

from conftest import run_sim


@pytest.fixture(scope="module")
def standalone_results():
    """One shared matchup reused by several claims (keeps the suite fast)."""
    config = ExperimentConfig(
        grid="DE",
        num_executors=16,
        workload=WorkloadSpec(family="tpch", num_jobs=10, tpch_scales=(2, 10)),
        trace_hours=2000,
        seed=3,
    )
    return run_matchup(
        ["fifo", "decima", "cap-fifo", "cap-decima", "pcaps", "greenhadoop"],
        config,
    )


class TestPaperClaims:
    def test_decima_beats_fifo_on_jct(self, standalone_results):
        """Table 3: learned scheduling roughly halves average JCT."""
        m = compare_to_baseline(
            standalone_results["decima"], standalone_results["fifo"]
        )
        assert m.jct_ratio < 1.0

    def test_carbon_aware_schedulers_reduce_carbon(self, standalone_results):
        base = standalone_results["fifo"]
        for name in ("cap-fifo", "cap-decima", "pcaps", "greenhadoop"):
            m = compare_to_baseline(standalone_results[name], base)
            assert m.carbon_reduction_pct > 0, name

    def test_pcaps_beats_cap_decima_tradeoff(self, standalone_results):
        """Section 6.4: at comparable carbon, PCAPS costs less ECT — we check
        the weaker, robust form: PCAPS is not dominated by CAP-Decima."""
        base = standalone_results["decima"]
        pcaps = compare_to_baseline(standalone_results["pcaps"], base)
        cap = compare_to_baseline(standalone_results["cap-decima"], base)
        dominated = (
            cap.carbon_reduction_pct >= pcaps.carbon_reduction_pct + 1.0
            and cap.ect_ratio <= pcaps.ect_ratio - 0.01
        )
        assert not dominated

    def test_carbon_agnostic_footprints_similar_on_flat_grid(self):
        """On ZA (nearly flat carbon) carbon-aware deferral buys little:
        reductions stay well below those on DE (Fig. 10/14)."""
        results = {}
        for grid in ("ZA", "DE"):
            config = ExperimentConfig(
                grid=grid,
                num_executors=12,
                gamma=0.9,
                workload=WorkloadSpec(
                    family="tpch", num_jobs=10, tpch_scales=(2, 10)
                ),
                trace_hours=2000,
                seed=2,
            )
            matchup = run_matchup(["decima", "pcaps"], config)
            m = compare_to_baseline(matchup["pcaps"], matchup["decima"])
            results[grid] = m.carbon_reduction_pct
        assert results["DE"] > results["ZA"]

    def test_alibaba_workload_end_to_end(self):
        """The Alibaba generator runs through the whole stack."""
        config = ExperimentConfig(
            grid="CAISO",
            num_executors=12,
            workload=WorkloadSpec(family="alibaba", num_jobs=5),
            trace_hours=1500,
            seed=8,
        )
        results = run_matchup(["decima", "pcaps"], config)
        assert all(r.num_jobs == 5 for r in results.values())


class TestTheoremsEmpirically:
    def test_theorem_43_pcaps_makespan_bound(self, square_trace):
        """Measured PCAPS makespan obeys (2 - 1/K + D K) * OPT_K with the
        measured deferral fraction (Theorem 4.3's ingredients)."""
        K = 3
        dag = JobDAG(
            [
                Stage(0, 2, 30.0),
                Stage(1, 3, 20.0, parents=(0,)),
                Stage(2, 2, 25.0, parents=(0,)),
                Stage(3, 1, 10.0, parents=(1, 2)),
            ]
        )
        subs = [JobSubmission(12 * 60.0, dag, 0)]
        scheduler = PCAPSScheduler(DecimaScheduler(seed=0), gamma=0.8)
        result = run_sim(scheduler, subs, square_trace, num_executors=K)
        makespan = result.ect - subs[0].arrival_time
        opt_lower = dag.total_work / K  # OPT_K >= work / K
        mean_task = dag.total_work / sum(
            s.num_tasks for s in dag.stages.values()
        )
        d = deferral_fraction(
            result.trace.deferrals, mean_task, dag.total_work
        )
        bound = (graham_bound(K) + d * K) * 1.0  # per OPT_K
        # The bound is vs OPT_K which we lower-bound; use the weaker form:
        assert makespan <= bound * dag.total_work  # OPT_K <= total work
        assert pcaps_stretch_factor(d, K) >= 1.0

    def test_theorem_45_cap_makespan_bound(self, square_trace):
        """CAP's measured makespan respects the Theorem 4.5 stretch factor
        applied to Graham's bound over the measured minimum quota."""
        K = 4
        dag = JobDAG([Stage(0, 8, 30.0), Stage(1, 4, 15.0, parents=(0,))])
        subs = [JobSubmission(12 * 60.0, dag, 0)]  # arrive at high carbon
        cap = CAPProvisioner(total_executors=K, min_quota=1)
        result = run_sim(
            KubernetesDefaultScheduler(), subs, square_trace,
            num_executors=K, provisioner=cap,
        )
        makespan = result.ect - subs[0].arrival_time
        m_seen = min_quota_from_trace(result.trace, default=K)
        csf = cap_stretch_factor(K, m_seen)
        graham = graham_bound(K)
        opt_upper = dag.total_work  # OPT_K <= serial work
        # Makespan <= CSF * Graham * OPT_K, with deferral waits bounded by
        # the carbon step length per quota change.
        slack = 2 * square_trace.step_seconds
        assert makespan <= csf * graham * opt_upper + slack

    def test_csf_ordering_matches_carbon_awareness(self):
        """More carbon-aware configurations have larger analytic CSF."""
        factors = [cap_stretch_factor(20, b) for b in (20, 15, 10, 5, 1)]
        assert factors == sorted(factors)
