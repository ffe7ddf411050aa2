"""Exact offline baselines for small DAGs: T-OPT and C-OPT (Fig. 1).

Figure 1 of the paper compares FIFO and PCAPS against two offline optima on
a motivating DAG and an 18-hour carbon trace:

- **T-OPT** — the time-optimal schedule (minimum makespan, ties broken by
  carbon);
- **C-OPT** — the carbon-optimal schedule subject to finishing within a
  deadline.

Both are computed here by exact state-space search over discrete time
steps. Each stage is a unit of serial work lasting an integer number of
steps (the motivating DAG's stages are single tasks lasting whole hours);
at every step, at most ``num_machines`` stages run. The search is
exponential in the DAG width, which is fine for the motivating examples
(≤ ~12 stages) but intentionally guarded by ``max_states``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from repro.dag.graph import JobDAG


@dataclass(frozen=True)
class OptimalSchedule:
    """An exact schedule: which stages run during each time step."""

    running: tuple[frozenset[int], ...]
    makespan_steps: int
    carbon_cost: float
    num_machines: int

    def machine_steps(self) -> int:
        """Total machine-steps of work performed."""
        return sum(len(s) for s in self.running)


def _durations_in_steps(dag: JobDAG, step_seconds: float) -> dict[int, int]:
    durations = {}
    for sid, stage in dag.stages.items():
        if stage.num_tasks != 1:
            raise ValueError(
                "exact search supports single-task stages only; "
                f"stage {sid} has {stage.num_tasks} tasks"
            )
        durations[sid] = max(1, math.ceil(stage.task_duration / step_seconds))
    return durations


def _search(
    dag: JobDAG,
    num_machines: int,
    carbon_series: Sequence[float],
    step_seconds: float,
    horizon: int,
    objective: str,
    preemptive: bool,
    max_states: int,
) -> OptimalSchedule:
    if num_machines < 1:
        raise ValueError("need at least one machine")
    if horizon < 1:
        raise ValueError("horizon must be >= 1 step")
    durations = _durations_in_steps(dag, step_seconds)
    order = sorted(dag.stage_ids())
    index = {sid: i for i, sid in enumerate(order)}
    start_state = tuple(durations[sid] for sid in order)
    goal = tuple(0 for _ in order)

    def carbon_at(step: int) -> float:
        if step < len(carbon_series):
            return float(carbon_series[step])
        return float(carbon_series[-1])

    def ready(state: tuple[int, ...]) -> list[int]:
        out = []
        for sid in order:
            i = index[sid]
            if state[i] <= 0:
                continue
            if all(state[index[p]] == 0 for p in dag.stage(sid).parents):
                out.append(sid)
        return out

    # frontier: state -> cost; parents[(step, state)] -> (prev_state, chosen)
    frontier: dict[tuple[int, ...], float] = {start_state: 0.0}
    parents: dict[tuple[int, tuple[int, ...]], tuple[tuple[int, ...], frozenset[int]]] = {}
    goal_step: int | None = None

    for step in range(horizon):
        if objective == "time" and goal in frontier:
            goal_step = step
            break
        next_frontier: dict[tuple[int, ...], float] = {}
        price = carbon_at(step)
        for state, cost in frontier.items():
            avail = ready(state)
            if preemptive:
                must: list[int] = []
                optional = avail
            else:
                must = [
                    sid for sid in avail if state[index[sid]] < durations[sid]
                ]
                optional = [
                    sid for sid in avail if state[index[sid]] == durations[sid]
                ]
            slots = num_machines - len(must)
            if slots < 0:  # cannot happen: these were already running
                continue
            for k in range(0, min(slots, len(optional)) + 1):
                for extra in combinations(optional, k):
                    chosen = frozenset(must) | frozenset(extra)
                    new_state = list(state)
                    for sid in chosen:
                        new_state[index[sid]] -= 1
                    new_tuple = tuple(new_state)
                    new_cost = cost + price * len(chosen)
                    if (
                        new_tuple not in next_frontier
                        or new_cost < next_frontier[new_tuple]
                    ):
                        next_frontier[new_tuple] = new_cost
                        parents[(step + 1, new_tuple)] = (state, chosen)
        frontier = next_frontier
        if len(frontier) > max_states:
            raise RuntimeError(
                f"search exceeded max_states={max_states}; "
                "this DAG is too large for exact search"
            )
        if not frontier:
            break

    if objective == "time":
        if goal_step is None:
            if goal in frontier:
                goal_step = horizon
            else:
                raise RuntimeError(
                    f"no feasible schedule within horizon={horizon} steps"
                )
        end_step = goal_step
    else:
        if goal not in frontier:
            raise RuntimeError(
                f"no feasible schedule within the deadline of {horizon} steps"
            )
        end_step = horizon

    # Reconstruct, trimming trailing idle steps.
    running: list[frozenset[int]] = []
    state = goal
    for step in range(end_step, 0, -1):
        prev_state, chosen = parents[(step, state)]
        running.append(chosen)
        state = prev_state
    running.reverse()
    while running and not running[-1]:
        running.pop()
    makespan = len(running)
    cost = sum(carbon_at(i) * len(s) for i, s in enumerate(running))
    return OptimalSchedule(
        running=tuple(running),
        makespan_steps=makespan,
        carbon_cost=cost,
        num_machines=num_machines,
    )


def optimal_time_schedule(
    dag: JobDAG,
    num_machines: int,
    carbon_series: Sequence[float],
    step_seconds: float = 1.0,
    horizon: int | None = None,
    preemptive: bool = True,
    max_states: int = 500_000,
) -> OptimalSchedule:
    """T-OPT: the minimum-makespan schedule (ties broken by carbon)."""
    total_steps = sum(_durations_in_steps(dag, step_seconds).values())
    return _search(
        dag,
        num_machines,
        carbon_series,
        step_seconds,
        horizon=horizon if horizon is not None else total_steps + 1,
        objective="time",
        preemptive=preemptive,
        max_states=max_states,
    )


def optimal_carbon_schedule(
    dag: JobDAG,
    num_machines: int,
    carbon_series: Sequence[float],
    deadline_steps: int,
    step_seconds: float = 1.0,
    preemptive: bool = True,
    max_states: int = 500_000,
) -> OptimalSchedule:
    """C-OPT: the minimum-carbon schedule finishing within the deadline."""
    return _search(
        dag,
        num_machines,
        carbon_series,
        step_seconds,
        horizon=deadline_steps,
        objective="carbon",
        preemptive=preemptive,
        max_states=max_states,
    )
