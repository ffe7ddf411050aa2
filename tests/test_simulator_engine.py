"""Integration-level tests of the event engine."""

import inspect

import pytest

from repro.carbon.api import CarbonIntensityAPI
from repro.core.pcaps import PCAPSScheduler
from repro.dag.graph import JobDAG, Stage, chain_dag, diamond_dag
from repro.experiments.runner import workload_for
from repro.schedulers.decima import DecimaScheduler
from repro.schedulers.fifo import FIFOScheduler, KubernetesDefaultScheduler
from repro.schedulers.weighted_fair import WeightedFairScheduler
from repro.simulator.engine import ClusterConfig, Simulation, simulate
from repro.simulator.interfaces import (
    NOTHING_GROWABLE,
    StageChoice,
    StageScheduler,
    StaticProvisioner,
)
from repro.workloads.arrivals import JobSubmission

from conftest import (
    assert_valid_schedule,
    run_sim,
    single_job,
    staggered_jobs,
    total_work,
)
from fingerprint_scenarios import PINNED_SCENARIOS, build_simulation


class TestClusterConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(num_executors=0)
        with pytest.raises(ValueError):
            ClusterConfig(executor_move_delay=-1.0)
        with pytest.raises(ValueError):
            ClusterConfig(per_job_executor_cap=0)
        with pytest.raises(ValueError):
            ClusterConfig(idle_power_fraction=1.5)

    def test_factories(self):
        standalone = ClusterConfig.standalone(10)
        assert standalone.per_job_executor_cap is None
        k8s = ClusterConfig.kubernetes(100)
        assert k8s.per_job_executor_cap == 25
        assert k8s.mode == "kubernetes"


class TestSingleJob(object):
    def test_single_stage_single_task(self, flat_trace):
        dag = JobDAG([Stage(0, 1, 7.0)])
        result = run_sim(FIFOScheduler(), single_job(dag), flat_trace)
        assert result.ect == pytest.approx(7.0)
        assert result.avg_jct == pytest.approx(7.0)

    def test_parallel_tasks_use_all_executors(self, flat_trace):
        dag = JobDAG([Stage(0, 4, 5.0)])
        result = run_sim(FIFOScheduler(), single_job(dag), flat_trace, num_executors=4)
        assert result.ect == pytest.approx(5.0)

    def test_tasks_wave_when_executors_scarce(self, flat_trace):
        dag = JobDAG([Stage(0, 4, 5.0)])
        result = run_sim(FIFOScheduler(), single_job(dag), flat_trace, num_executors=2)
        assert result.ect == pytest.approx(10.0)

    def test_chain_runs_serially(self, flat_trace):
        dag = chain_dag([3.0, 4.0, 5.0])
        result = run_sim(FIFOScheduler(), single_job(dag), flat_trace)
        assert result.ect == pytest.approx(12.0)

    def test_schedule_valid(self, flat_trace, tiny_dag):
        submissions = single_job(tiny_dag)
        result = run_sim(FIFOScheduler(), submissions, flat_trace)
        assert_valid_schedule(result, submissions)

    def test_arrival_time_respected(self, flat_trace):
        dag = JobDAG([Stage(0, 1, 2.0)])
        result = run_sim(FIFOScheduler(), single_job(dag, arrival=100.0), flat_trace)
        assert result.finishes[0] == pytest.approx(102.0)
        assert result.avg_jct == pytest.approx(2.0)


class TestMoveDelay:
    def test_move_delay_applied_on_first_binding(self, flat_trace):
        dag = JobDAG([Stage(0, 1, 2.0)])
        result = run_sim(
            FIFOScheduler(), single_job(dag), flat_trace, move_delay=1.5
        )
        (task,) = result.trace.tasks
        assert task.moved
        assert task.work_start - task.start == pytest.approx(1.5)
        assert result.ect == pytest.approx(3.5)

    def test_no_move_delay_within_same_job(self, flat_trace):
        dag = chain_dag([2.0, 2.0])
        result = run_sim(
            FIFOScheduler(), single_job(dag), flat_trace, num_executors=1,
            move_delay=1.0,
        )
        first, second = sorted(result.trace.tasks, key=lambda t: t.start)
        assert first.moved
        assert not second.moved

    def test_move_delay_when_switching_jobs(self, flat_trace):
        dag = JobDAG([Stage(0, 1, 2.0)])
        subs = [
            JobSubmission(0.0, dag, 0),
            JobSubmission(10.0, dag, 1),
        ]
        result = run_sim(
            KubernetesDefaultScheduler(), subs, flat_trace, num_executors=1,
            move_delay=1.0,
        )
        tasks = sorted(result.trace.tasks, key=lambda t: t.start)
        assert all(t.moved for t in tasks)


class TestMultiJob:
    def test_all_jobs_complete(self, flat_trace, tiny_dag):
        subs = staggered_jobs([tiny_dag] * 5)
        result = run_sim(KubernetesDefaultScheduler(), subs, flat_trace)
        assert len(result.finishes) == 5
        assert_valid_schedule(result, subs)

    def test_work_conservation(self, flat_trace, tiny_dag):
        subs = staggered_jobs([tiny_dag] * 3)
        result = run_sim(KubernetesDefaultScheduler(), subs, flat_trace)
        assert result.trace.total_task_time() == pytest.approx(total_work(subs))

    def test_per_job_cap_enforced(self, flat_trace):
        dag = JobDAG([Stage(0, 8, 4.0)])
        subs = single_job(dag)
        result = run_sim(
            KubernetesDefaultScheduler(), subs, flat_trace, num_executors=8,
            per_job_cap=2,
        )
        # With a cap of 2 of 8 executors, the 8 tasks run in 4 waves.
        assert result.ect == pytest.approx(16.0)

    def test_simulate_wrapper(self, flat_trace, tiny_dag):
        result = simulate(
            single_job(tiny_dag),
            FIFOScheduler(),
            CarbonIntensityAPI(flat_trace),
            config=ClusterConfig(num_executors=4, executor_move_delay=0.0),
        )
        assert result.num_jobs == 1

    def test_empty_submissions_rejected(self, flat_trace):
        with pytest.raises(ValueError):
            simulate([], FIFOScheduler(), CarbonIntensityAPI(flat_trace))


class TestQuotaEnforcement:
    def test_static_quota_caps_concurrency(self, flat_trace):
        dag = JobDAG([Stage(0, 6, 3.0)])
        result = run_sim(
            FIFOScheduler(), single_job(dag), flat_trace, num_executors=6,
            provisioner=StaticProvisioner(2),
        )
        assert result.ect == pytest.approx(9.0)  # 3 waves of 2
        # at no point in time may more than 2 tasks overlap
        events = sorted(
            [(t.start, 1) for t in result.trace.tasks]
            + [(t.end, -1) for t in result.trace.tasks]
        )
        concurrent, worst = 0, 0
        for _, delta in events:
            concurrent += delta
            worst = max(worst, concurrent)
        assert worst <= 2

    def test_quota_of_one_still_progresses(self, flat_trace, tiny_dag):
        result = run_sim(
            FIFOScheduler(), single_job(tiny_dag), flat_trace,
            provisioner=StaticProvisioner(1),
        )
        assert result.ect == pytest.approx(tiny_dag.total_work)

    def test_quota_recorded_in_trace(self, flat_trace, tiny_dag):
        result = run_sim(
            FIFOScheduler(), single_job(tiny_dag), flat_trace,
            provisioner=StaticProvisioner(2),
        )
        assert result.trace.quotas
        assert result.trace.quotas[0].quota == 2


class TestHoardingSemantics:
    def test_fifo_emits_holds(self, flat_trace, tiny_dag):
        result = run_sim(FIFOScheduler(), single_job(tiny_dag), flat_trace)
        assert result.trace.holds
        for hold in result.trace.holds:
            assert hold.end == pytest.approx(result.finishes[hold.job_id])

    def test_non_holding_scheduler_has_no_holds(self, flat_trace, tiny_dag):
        result = run_sim(
            KubernetesDefaultScheduler(), single_job(tiny_dag), flat_trace
        )
        assert result.trace.holds == []

    def test_holds_cover_tasks(self, flat_trace, tiny_dag):
        subs = staggered_jobs([tiny_dag] * 3, gap=5.0)
        result = run_sim(FIFOScheduler(), subs, flat_trace)
        holds = {
            (h.job_id, h.executor_id): h for h in result.trace.holds
        }
        for task in result.trace.tasks:
            hold = holds[(task.job_id, task.executor_id)]
            assert hold.start <= task.start and task.end <= hold.end + 1e-9

    def test_hoarding_blocks_later_jobs(self, flat_trace):
        """A wide first job delays a later one under FIFO but not under the
        Kubernetes default — the Appendix A.1.2 effect."""
        wide = JobDAG([Stage(0, 4, 10.0), Stage(1, 1, 10.0, parents=(0,))])
        quick = JobDAG([Stage(0, 1, 1.0)])
        subs = [JobSubmission(0.0, wide, 0), JobSubmission(1.0, quick, 1)]
        fifo = run_sim(FIFOScheduler(), subs, flat_trace, num_executors=4)
        k8s = run_sim(KubernetesDefaultScheduler(), subs, flat_trace, num_executors=4)
        assert fifo.finishes[1] > k8s.finishes[1]

    def test_held_time_increases_busy_time(self, flat_trace):
        wide = JobDAG([Stage(0, 4, 10.0), Stage(1, 1, 10.0, parents=(0,))])
        subs = single_job(wide)
        fifo = run_sim(FIFOScheduler(), subs, flat_trace, num_executors=4)
        assert fifo.trace.total_busy_time() > fifo.trace.total_task_time()


class TestCarbonEvents:
    def test_carbon_change_is_scheduling_event(self, square_trace):
        """A deferring scheduler wakes up on a carbon step without any task
        completions pending."""

        class DeferUntilCheap(StageScheduler):
            name = "defer-test"

            def select(self, view):
                if view.carbon.intensity > 100.0:
                    return None
                for job, stage_id in view.assignable_jobs():
                    return type(
                        "C", (), {"job_id": job.job_id, "stage_id": stage_id,
                                  "parallelism_limit": None},
                    )
                return None

        # square_trace starts low (50) for 12 steps; shift arrival into the
        # high block so the scheduler must wait for the next low block.
        dag = JobDAG([Stage(0, 1, 5.0)])
        subs = [JobSubmission(12 * 60.0 + 1.0, dag, 0)]
        result = run_sim(DeferUntilCheap(), subs, square_trace)
        (task,) = result.trace.tasks
        assert task.start >= 24 * 60.0  # waited for the next low block

    def test_max_time_guard(self, flat_trace):
        class NeverSchedules(StageScheduler):
            name = "never"

            def select(self, view):
                return None

        dag = JobDAG([Stage(0, 1, 1.0)])
        sim = Simulation(
            config=ClusterConfig(num_executors=1, executor_move_delay=0.0),
            scheduler=NeverSchedules(),
            carbon_api=CarbonIntensityAPI(flat_trace),
            max_time=1000.0,
        )
        with pytest.raises(RuntimeError, match="max_time"):
            sim.run(single_job(dag))


class TestLatencyMeasurement:
    def test_latency_recorded(self, flat_trace, tiny_dag):
        result = run_sim(
            FIFOScheduler(), single_job(tiny_dag), flat_trace,
            measure_latency=True,
        )
        assert result.scheduler_invocations > 0
        assert result.scheduler_time_s >= 0.0
        assert result.avg_scheduler_latency_s >= 0.0

    def test_latency_not_recorded_by_default(self, flat_trace, tiny_dag):
        result = run_sim(FIFOScheduler(), single_job(tiny_dag), flat_trace)
        assert result.scheduler_invocations == 0

    @pytest.mark.parametrize(
        "scheduler_cls, scenario",
        [
            (FIFOScheduler, "fifo"),
            (KubernetesDefaultScheduler, "k8s-default"),
            (WeightedFairScheduler, "weighted-fair"),
            (DecimaScheduler, "decima"),
            # The provisioner paths: quota-gated passes still route here.
            (FIFOScheduler, "greenhadoop"),
            (DecimaScheduler, "cap-decima"),
            (PCAPSScheduler, "pcaps"),
        ],
    )
    def test_every_select_goes_through_select_gen(
        self, monkeypatch, scheduler_cls, scenario
    ):
        """The benchmark's traced run counts selects by wrapping
        ``select_gen`` on each scheduler class (resolved with
        ``inspect.getattr_static``); the engine must route every select
        through that name, or the ``sched.select`` layer under-counts."""
        calls = []
        original = inspect.getattr_static(scheduler_cls, "select_gen")

        def counting(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)

        monkeypatch.setattr(scheduler_cls, "select_gen", counting)
        (config,) = [c for c in PINNED_SCENARIOS if c.scheduler == scenario]
        sim = build_simulation(config)
        assert type(sim.scheduler) is scheduler_cls
        sim.measure_latency = True
        result = sim.run(workload_for(config))
        assert result.scheduler_invocations > 0
        assert len(calls) == result.scheduler_invocations


class TestSelectGen:
    """``select_gen`` is a plain forwarder to ``select`` that no scheduler
    overrides, so wrapping it on a class sees exactly that class's
    decisions."""

    @pytest.mark.parametrize(
        "reply",
        [StageChoice(job_id=3, stage_id=1), None, NOTHING_GROWABLE],
        ids=["choice", "deferral", "nothing-growable"],
    )
    def test_forwards_every_reply_kind_unchanged(self, reply):
        class Fixed(StageScheduler):
            def select(self, view):
                seen.append(view)
                return reply

        seen = []
        view = object()
        assert not inspect.isgeneratorfunction(StageScheduler.select_gen)
        assert Fixed().select_gen(view) is reply
        assert seen == [view]

    def test_no_scheduler_overrides_select_gen(self):
        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        # Import every module defining a scheduler before walking the tree.
        assert {
            FIFOScheduler, KubernetesDefaultScheduler, WeightedFairScheduler,
            DecimaScheduler, PCAPSScheduler,
        } <= set(subclasses(StageScheduler))
        base = inspect.getattr_static(StageScheduler, "select_gen")
        overriding = [
            cls.__qualname__
            for cls in subclasses(StageScheduler)
            if cls.__module__.startswith("repro.")
            and inspect.getattr_static(cls, "select_gen") is not base
        ]
        assert overriding == []


class TestRepeatedRuns:
    def test_second_run_replays_identically(self, square_trace):
        """run() twice on one Simulation gives the identical schedule.

        The event heap breaks timestamp ties with a monotone counter; it is
        reset at the top of run() so a reused Simulation replays the same
        tie-break ordering instead of continuing where the first run left
        the counter.
        """
        dags = [diamond_dag(), chain_dag([2.0, 1.0, 3.0]), diamond_dag()]
        submissions = staggered_jobs(dags, gap=2.0)
        sim = Simulation(
            config=ClusterConfig(num_executors=2, executor_move_delay=0.0),
            scheduler=FIFOScheduler(),
            carbon_api=CarbonIntensityAPI(square_trace),
        )
        first = sim.run(submissions)
        second = sim.run(submissions)
        assert first.trace.tasks == second.trace.tasks
        assert first.finishes == second.finishes
        assert first.carbon_footprint == second.carbon_footprint
