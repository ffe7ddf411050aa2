"""TPC-H-like query DAGs.

Each of the 22 TPC-H queries is modelled as a scan/join/aggregate stage DAG:

- *scan* stages are the roots: many tasks (data-parallel reads), and they
  carry most of the work;
- *join* stages form a binary tree over the scans (each join waits for its
  two inputs), with shuffle-sized task counts;
- *aggregate/sort* stages form a short chain after the final join.

The per-query shape (number of scans, tree structure, task counts, work
split) is derived deterministically from the query number, so ``tpch_job``
is reproducible. Total serial duration is calibrated so the *average over
all 22 queries* at each scale matches the paper (Section 6.1): 180 s at
2 GB, 386 s at 10 GB and 1,261 s at 50 GB on a single executor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.dag.graph import JobDAG, Stage

#: Average single-executor duration (seconds) per data scale, from the paper.
TPCH_SCALE_DURATIONS: dict[int, float] = {2: 180.0, 10: 386.0, 50: 1261.0}

TPCH_QUERIES: tuple[str, ...] = tuple(f"q{i}" for i in range(1, 23))

# Deterministic per-query complexity multipliers. TPC-H queries differ widely
# in cost (q1/q9/q21 are heavy; q6/q14 are light). The multipliers below are
# normalized to mean 1.0 so scale-average durations stay calibrated.
_RAW_COMPLEXITY = {
    "q1": 1.60, "q2": 0.70, "q3": 1.10, "q4": 0.80, "q5": 1.30,
    "q6": 0.45, "q7": 1.20, "q8": 1.25, "q9": 1.75, "q10": 1.05,
    "q11": 0.60, "q12": 0.75, "q13": 0.90, "q14": 0.55, "q15": 0.70,
    "q16": 0.80, "q17": 1.15, "q18": 1.50, "q19": 0.85, "q20": 1.00,
    "q21": 1.70, "q22": 0.65,
}
_MEAN_COMPLEXITY = sum(_RAW_COMPLEXITY.values()) / len(_RAW_COMPLEXITY)
QUERY_COMPLEXITY: dict[str, float] = {
    q: c / _MEAN_COMPLEXITY for q, c in _RAW_COMPLEXITY.items()
}

# Number of base-table scans per query, following each query's actual join
# footprint in the TPC-H specification.
_QUERY_SCANS = {
    "q1": 1, "q2": 5, "q3": 3, "q4": 2, "q5": 6, "q6": 1, "q7": 5,
    "q8": 7, "q9": 6, "q10": 4, "q11": 3, "q12": 2, "q13": 2, "q14": 2,
    "q15": 2, "q16": 3, "q17": 2, "q18": 3, "q19": 2, "q20": 4,
    "q21": 4, "q22": 2,
}

# Work split among stage roles (scans dominate, then joins, then aggregates).
_SCAN_FRACTION = 0.50
_JOIN_FRACTION = 0.35
_AGG_FRACTION = 0.15


@dataclass(frozen=True)
class QueryShape:
    """Structural summary of one modelled query (for catalog display)."""

    query: str
    num_scans: int
    num_joins: int
    num_aggregates: int
    complexity: float

    @property
    def num_stages(self) -> int:
        return self.num_scans + self.num_joins + self.num_aggregates


def _query_rng(query: str, scale_gb: int) -> np.random.Generator:
    """Deterministic RNG per (query, scale): shapes never change run-to-run."""
    index = TPCH_QUERIES.index(query)
    return np.random.default_rng(10_000 + 100 * index + scale_gb)


def _task_count(scale_gb: int, heavy: bool, rng: np.random.Generator) -> int:
    """Tasks per stage grow with the data scale (more partitions)."""
    base = {2: 4, 10: 8, 50: 16}[scale_gb]
    spread = rng.integers(0, base // 2 + 1)
    count = base + int(spread) if heavy else max(2, base // 2 + int(spread) // 2)
    return int(count)


def tpch_job(
    query: str,
    scale_gb: int = 10,
    duration_jitter: float = 0.0,
    seed: int | None = None,
) -> JobDAG:
    """Build the stage DAG for one TPC-H query at a given data scale.

    Without jitter the DAG is a pure function of ``(query, scale_gb)``, so
    every such call returns the same memoized :class:`JobDAG` (at most 66
    exist); DAGs are immutable, and sharing one also shares its cached
    topological index across every job runtime built on it. A call with
    jitter builds a fresh DAG and leaves the memo alone.

    Parameters
    ----------
    query:
        Query name, ``"q1"`` through ``"q22"``.
    scale_gb:
        Data scale; one of 2, 10, 50 (the paper's scales).
    duration_jitter:
        Optional multiplicative log-normal jitter on the job's total
        duration (0 = deterministic durations, the default).
    seed:
        Seed for the jitter only; the DAG *shape* is always deterministic.
    """
    if query not in QUERY_COMPLEXITY:
        raise ValueError(f"unknown TPC-H query {query!r}")
    if scale_gb not in TPCH_SCALE_DURATIONS:
        raise ValueError(
            f"scale_gb must be one of {sorted(TPCH_SCALE_DURATIONS)}, got {scale_gb}"
        )
    if duration_jitter > 0:
        return _build_tpch_job(query, scale_gb, duration_jitter, seed)
    return _shared_tpch_job(query, scale_gb)


@lru_cache(maxsize=None)
def _shared_tpch_job(query: str, scale_gb: int) -> JobDAG:
    return _build_tpch_job(query, scale_gb, 0.0, None)


def _build_tpch_job(
    query: str, scale_gb: int, duration_jitter: float, seed: int | None
) -> JobDAG:
    rng = _query_rng(query, scale_gb)
    total = TPCH_SCALE_DURATIONS[scale_gb] * QUERY_COMPLEXITY[query]
    if duration_jitter > 0:
        jitter_rng = np.random.default_rng(seed)
        total *= float(np.exp(jitter_rng.normal(0.0, duration_jitter)))

    num_scans = _QUERY_SCANS[query]
    num_joins = max(num_scans - 1, 0)
    num_aggs = 1 + (QUERY_COMPLEXITY[query] > 1.0) + (num_scans >= 5) + (num_scans == 1)

    stages: list[Stage] = []
    next_id = 0

    # Scan stages: roots, share _SCAN_FRACTION of the work unevenly
    # (lineitem-style scans are much bigger than nation-style ones).
    scan_weights = rng.dirichlet(np.full(num_scans, 1.5))
    scan_work = total * (_SCAN_FRACTION if num_joins else 1.0 - _AGG_FRACTION)
    scan_ids: list[int] = []
    for i in range(num_scans):
        tasks = _task_count(scale_gb, heavy=scan_weights[i] > 1.0 / num_scans, rng=rng)
        work = scan_work * float(scan_weights[i])
        stages.append(
            Stage(next_id, tasks, max(work / tasks, 0.01), name=f"{query}-scan{i}")
        )
        scan_ids.append(next_id)
        next_id += 1

    # Join tree: repeatedly join the two "smallest" available inputs.
    join_work_each = (total * _JOIN_FRACTION / num_joins) if num_joins else 0.0
    available = list(scan_ids)
    for j in range(num_joins):
        left = available.pop(0)
        right = available.pop(0)
        tasks = _task_count(scale_gb, heavy=False, rng=rng)
        stages.append(
            Stage(
                next_id,
                tasks,
                max(join_work_each / tasks, 0.01),
                parents=(left, right),
                name=f"{query}-join{j}",
            )
        )
        available.append(next_id)
        next_id += 1

    # Aggregation/sort chain after the last join (or the single scan).
    tail = available[-1]
    agg_work_each = total * _AGG_FRACTION / num_aggs
    for a in range(num_aggs):
        tasks = max(2, _task_count(scale_gb, heavy=False, rng=rng) // 2)
        stages.append(
            Stage(
                next_id,
                tasks,
                max(agg_work_each / tasks, 0.01),
                parents=(tail,),
                name=f"{query}-agg{a}",
            )
        )
        tail = next_id
        next_id += 1

    return JobDAG(stages, name=f"tpch-{query}-{scale_gb}gb")


def tpch_query_catalog(scale_gb: int = 10) -> list[QueryShape]:
    """Shapes of all 22 modelled queries (used by docs and tests)."""
    catalog = []
    for query in TPCH_QUERIES:
        num_scans = _QUERY_SCANS[query]
        num_aggs = 1 + (QUERY_COMPLEXITY[query] > 1.0) + (num_scans >= 5) + (num_scans == 1)
        catalog.append(
            QueryShape(
                query=query,
                num_scans=num_scans,
                num_joins=max(num_scans - 1, 0),
                num_aggregates=num_aggs,
                complexity=QUERY_COMPLEXITY[query],
            )
        )
    return catalog


def random_tpch_batch(
    num_jobs: int,
    scales: tuple[int, ...] = (2, 10, 50),
    seed: int | None = 0,
) -> list[JobDAG]:
    """Sample ``num_jobs`` query DAGs uniformly over queries and scales.

    Mirrors the paper's workload construction: "specific jobs are randomly
    picked from the respective traces" (Section 6.1).
    """
    if num_jobs <= 0:
        raise ValueError("num_jobs must be positive")
    rng = np.random.default_rng(seed)
    jobs = []
    for _ in range(num_jobs):
        query = TPCH_QUERIES[int(rng.integers(len(TPCH_QUERIES)))]
        scale = int(scales[int(rng.integers(len(scales)))])
        jobs.append(tpch_job(query, scale))
    return jobs
