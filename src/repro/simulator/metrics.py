"""Experiment results and the paper's evaluation metrics.

Section 6.1 defines three metrics, all reported relative to a
carbon-agnostic baseline:

- **Carbon footprint** — percentage change vs. the baseline (negative is a
  reduction).
- **JCT** — average job completion time, as a fraction of the baseline's.
- **ECT** — end-to-end completion time (total time to finish the whole
  batch), as a fraction of the baseline's; this is the throughput metric the
  paper optimizes for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.carbon.trace import CarbonTrace
from repro.simulator.trace import ScheduleTrace


@dataclass
class ExperimentResult:
    """Everything measured from one simulated experiment."""

    scheduler_name: str
    trace: ScheduleTrace
    carbon_trace: CarbonTrace
    arrivals: dict[int, float]
    finishes: dict[int, float]
    scheduler_time_s: float = 0.0
    scheduler_invocations: int = 0
    events_processed: int = 0
    _carbon_cache: float | None = field(default=None, repr=False)

    # ------------------------------------------------------------------
    # Absolute metrics
    # ------------------------------------------------------------------
    @property
    def num_jobs(self) -> int:
        return len(self.arrivals)

    @property
    def job_completion_times(self) -> dict[int, float]:
        return {
            job_id: self.finishes[job_id] - arrival
            for job_id, arrival in self.arrivals.items()
        }

    @property
    def avg_jct(self) -> float:
        """Average job completion time over the batch (seconds).

        Exactly-rounded summation (order-independent), matching the
        streaming aggregates bit for bit — see ``docs/streaming.md``.
        """
        jcts = list(self.job_completion_times.values())
        return math.fsum(jcts) / len(jcts) if jcts else 0.0

    @property
    def ect(self) -> float:
        """End-to-end completion time: experiment start to last finish."""
        return max(self.finishes.values(), default=0.0)

    @property
    def carbon_footprint(self) -> float:
        """Total ex-post carbon tally (cached; see ScheduleTrace)."""
        if self._carbon_cache is None:
            self._carbon_cache = self.trace.carbon_footprint(self.carbon_trace)
        return self._carbon_cache

    @property
    def total_busy_time(self) -> float:
        return self.trace.total_busy_time()

    def per_job_carbon(self) -> dict[int, float]:
        return self.trace.job_carbon_footprints(self.carbon_trace)

    def utilization(self) -> float:
        """Mean fraction of executors busy until the batch completes."""
        horizon = self.ect
        if horizon <= 0:
            return 0.0
        return self.total_busy_time / (horizon * self.trace.total_executors)

    @property
    def avg_scheduler_latency_s(self) -> float:
        """Mean wall-clock seconds per scheduler invocation (Fig. 20)."""
        if self.scheduler_invocations == 0:
            return 0.0
        return self.scheduler_time_s / self.scheduler_invocations

    def carbon_cost_usd(
        self,
        price_per_ton_usd: float = 100.0,
        executor_power_kw: float = 0.25,
    ) -> float:
        """Operational carbon cost under an internal carbon price.

        The paper motivates carbon-awareness partly through internal carbon
        pricing (Section 1, the Microsoft example). The footprint unit is
        gCO2eq/kWh x executor-seconds; with a per-executor power draw it
        converts to grams and then to dollars:

        ``grams = footprint * power_kw / 3600``;
        ``usd = grams / 1e6 * price_per_ton``.
        """
        if price_per_ton_usd < 0 or executor_power_kw <= 0:
            raise ValueError("price must be >= 0 and power > 0")
        grams = self.carbon_footprint * executor_power_kw / 3600.0
        return grams / 1e6 * price_per_ton_usd


@dataclass(frozen=True)
class NormalizedMetrics:
    """One scheduler's metrics normalized to a baseline (a table row)."""

    scheduler_name: str
    baseline_name: str
    carbon_reduction_pct: float  # positive = less carbon than baseline
    ect_ratio: float  # >1 = slower end-to-end than baseline
    jct_ratio: float  # >1 = higher average JCT than baseline

    def as_row(self) -> tuple[str, float, float, float]:
        return (
            self.scheduler_name,
            self.carbon_reduction_pct,
            self.ect_ratio,
            self.jct_ratio,
        )


def compare_to_baseline(
    result: ExperimentResult, baseline: ExperimentResult
) -> NormalizedMetrics:
    """Normalize a result against a baseline, as every paper table does."""
    base_carbon = baseline.carbon_footprint
    base_ect = baseline.ect
    base_jct = baseline.avg_jct
    return NormalizedMetrics(
        scheduler_name=result.scheduler_name,
        baseline_name=baseline.scheduler_name,
        carbon_reduction_pct=(
            100.0 * (1.0 - result.carbon_footprint / base_carbon)
            if base_carbon > 0
            else 0.0
        ),
        ect_ratio=result.ect / base_ect if base_ect > 0 else 1.0,
        jct_ratio=result.avg_jct / base_jct if base_jct > 0 else 1.0,
    )
