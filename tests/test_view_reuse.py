"""The engine's one-view-per-step contract.

``SimulationStepper.step`` builds one :class:`ClusterView` per step and
updates it in place between ``select`` calls (quota set, blocked retry,
grant). These tests audit every view a scheduler receives against a view
freshly built from the same engine state: occupancy, blocked set, the
memoized first assignable stage, the assignable walk and both frontier
variants must agree bit for bit. The audited runs must also keep the
schedule of an unaudited run, so the audit observes without perturbing.
"""

from __future__ import annotations

import pytest

from fingerprint_scenarios import (
    PINNED_SCENARIOS,
    SCENARIO_IDS,
    build_simulation,
    pinned,
    schedule_fingerprint,
)
from repro.experiments.runner import workload_for
from repro.obs.observer import collecting
from repro.simulator.engine import SimulationStepper
from repro.simulator.interfaces import StageScheduler
from repro.simulator.state import ClusterView


class ViewAudit:
    """Checks each view handed to ``select`` against a fresh build.

    The expected blocked set is collected independently of the view:
    every :meth:`ClusterView.block` call since the current step began.
    """

    def __init__(self, monkeypatch) -> None:
        self.stepper: SimulationStepper | None = None
        self.now = 0.0
        self.blocked: set[tuple[int, int]] = set()
        self.selects = 0
        audit = self
        step, block = SimulationStepper.step, ClusterView.block
        select_gen = StageScheduler.select_gen

        def audited_step(stepper):
            audit.stepper = stepper
            audit.now = stepper.events[0][0]
            audit.blocked = set()
            return step(stepper)

        def audited_block(view, job_id, stage_id):
            audit.blocked.add((job_id, stage_id))
            return block(view, job_id, stage_id)

        def audited_select_gen(scheduler, view):
            audit.check(view)
            return select_gen(scheduler, view)

        monkeypatch.setattr(SimulationStepper, "step", audited_step)
        monkeypatch.setattr(ClusterView, "block", audited_block)
        monkeypatch.setattr(StageScheduler, "select_gen", audited_select_gen)

    def fresh_view(self, carbon) -> ClusterView:
        stepper = self.stepper
        pool = stepper.pool
        return ClusterView(
            time=self.now,
            total_executors=stepper.capacity,
            busy_executors=stepper.capacity - pool.free_count,
            quota=stepper.trace.quotas[-1].quota,
            jobs=stepper.jobs,
            carbon=carbon,
            per_job_cap=stepper.sim.config.per_job_executor_cap,
            blocked=frozenset(self.blocked),
            general_free=pool.general_free,
            reserved_free=pool.reserved_counts(),
            active=stepper.active,
        )

    def check(self, view: ClusterView) -> None:
        self.selects += 1
        fresh = self.fresh_view(view.carbon)
        assert view.time == fresh.time
        for name in (
            "total_executors",
            "busy_executors",
            "quota",
            "per_job_cap",
            "general_free",
            "reserved_free",
            "free_executors",
            "assignable_executors",
            "_blocked",
        ):
            assert getattr(view, name) == getattr(fresh, name), name
        assert 0 not in view.reserved_free.values()
        assert ids(view.first_assignable()) == ids(fresh.first_assignable())
        assert [ids(item) for item in view.assignable_jobs()] == [
            ids(item) for item in fresh.assignable_jobs()
        ]
        for include_saturated in (False, True):
            got = view.frontier_arrays(include_saturated).data
            want = fresh.frontier_arrays(include_saturated).data
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def ids(item):
    """``(job_id, stage_id)`` of an assignable-walk item, or ``None``."""
    return None if item is None else (item[0].job_id, item[1])


def fingerprint(config, prepare=lambda stepper: None) -> str:
    """The schedule fingerprint of ``config``'s batch run; ``prepare``
    may install disruptions or drop the frontier table first."""
    stepper = build_simulation(config).stepper()
    for sub in workload_for(config):
        stepper.submit(sub)
    prepare(stepper)
    stepper.run_to_completion()
    return schedule_fingerprint(stepper.result())


@pytest.mark.parametrize("config", PINNED_SCENARIOS, ids=SCENARIO_IDS)
def test_every_select_sees_a_fresh_view(config, monkeypatch):
    expected = fingerprint(config)
    audit = ViewAudit(monkeypatch)
    assert fingerprint(config) == expected
    assert audit.selects > 0


def drop_capacity(stepper) -> None:
    """An outage at t=40 (every running task is preempted), one executor
    back at t=100, full capacity at t=150."""
    stepper.schedule_capacity(40.0, 0)
    stepper.schedule_capacity(100.0, 1)
    stepper.schedule_capacity(150.0, stepper.sim.config.num_executors)


def drop_table(stepper) -> None:
    stepper._frontier_table = None


@pytest.mark.parametrize("scheduler", ["fifo", "decima", "pcaps"])
def test_capacity_drop_that_preempts(scheduler, monkeypatch):
    config = pinned(scheduler)
    expected = fingerprint(config, drop_capacity)
    audit = ViewAudit(monkeypatch)
    assert fingerprint(config, drop_capacity) == expected
    assert audit.stepper.preempted_tasks > 0
    assert audit.selects > 0


@pytest.mark.parametrize("scheduler", ["decima", "pcaps", "cap-decima"])
def test_views_without_a_frontier_table(scheduler, monkeypatch):
    config = pinned(scheduler)
    expected = fingerprint(config)
    audit = ViewAudit(monkeypatch)
    assert fingerprint(config, drop_table) == expected
    assert audit.stepper._frontier_table is None
    assert audit.selects > 0


@pytest.mark.parametrize("config", PINNED_SCENARIOS, ids=SCENARIO_IDS)
def test_at_most_one_view_per_step(config):
    with collecting("views") as observer:
        fingerprint(config)
    registry = observer.registry
    steps = registry.value("engine.steps")
    assert steps > 0
    assert 0 < registry.value("engine.views") <= steps
