"""The one sweep path: ``run_sweep`` / ``run_table`` against a hand loop.

The paper's normalized sweeps (Tables 2/3, Figs. 7/8 and 10-19) run as
campaign specs through :func:`repro.campaign.executor.run_sweep`. Each test
runs a small spec and the plain loop such a sweep means —
``run_experiment`` per config on one trace, ``compare_to_baseline``
against the baseline on that trace, ``np.mean`` over replicates in order —
and requires the two to agree bit for bit, in the documented order.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.campaign import executor
from repro.campaign.executor import run_sweep, run_table
from repro.campaign.reports import SweepPoint, sweep_points
from repro.campaign.spec import (
    CampaignSpec,
    campaign_presets,
    config_to_dict,
    table_spec,
)
from repro.campaign.store import STATUS_OK, TrialRecord
from repro.experiments.runner import (
    ExperimentConfig,
    carbon_trace_for,
    run_experiment,
)
from repro.simulator.metrics import compare_to_baseline
from repro.workloads.batch import WorkloadSpec

SMALL = WorkloadSpec(family="tpch", num_jobs=3, tpch_scales=(2,))


def small_config(**overrides) -> ExperimentConfig:
    params = dict(grid="DE", num_executors=4, workload=SMALL, trace_hours=600)
    params.update(overrides)
    return ExperimentConfig(**params)


def with_field(config, name: str, value):
    """``config`` with one field set; ``workload.x`` reaches the batch."""
    if name.startswith("workload."):
        workload = replace(config.workload, **{name.split(".")[1]: value})
        return replace(config, workload=workload)
    return replace(config, **{name: value})


def reference_points(base, baseline, policies, name, values, replicates=({},)):
    """The hand-rolled sweep: for each value (sorted) and policy (in the
    given order) but the baseline, run the policy and the baseline on one
    trace per replicate, normalize, and average the replicates in order."""
    points = []
    for value in sorted(values):
        for policy in policies:
            if policy == baseline or (name == "scheduler" and policy != value):
                continue
            rows = []
            for replicate in replicates:
                config = with_field(base, name, value)
                for field_name, field_value in replicate.items():
                    config = with_field(config, field_name, field_value)
                trace = carbon_trace_for(config)
                base_result = run_experiment(
                    config.with_scheduler(baseline), carbon_trace=trace
                )
                result = run_experiment(
                    config.with_scheduler(policy), carbon_trace=trace
                )
                rows.append(compare_to_baseline(result, base_result))
            points.append(
                SweepPoint(
                    policy=policy,
                    parameter=value if isinstance(value, str) else float(value),
                    carbon_reduction_pct=float(
                        np.mean([m.carbon_reduction_pct for m in rows])
                    ),
                    ect_ratio=float(np.mean([m.ect_ratio for m in rows])),
                    jct_ratio=float(np.mean([m.jct_ratio for m in rows])),
                )
            )
    return points


class TestRunSweepMatchesTheHandLoop:
    def test_gamma_sweep(self):
        base = small_config(seed=5)
        gammas = (0.9, 0.1, 0.5)
        spec = CampaignSpec(
            "g", base, axes={"scheduler": ("pcaps",), "gamma": gammas},
            baseline="decima",
        )
        points = run_sweep(spec, "gamma")
        assert [p.parameter for p in points] == [0.1, 0.5, 0.9]
        assert points == reference_points(base, "decima", ("pcaps",), "gamma", gammas)
        # More carbon-aware, more carbon saved (up to small-batch noise).
        assert points[0].carbon_reduction_pct <= points[-1].carbon_reduction_pct + 5.0

    def test_cap_b_sweep(self):
        base = small_config(seed=5)
        quotas = (1, 3)
        spec = CampaignSpec(
            "b", base,
            axes={"scheduler": ("cap-fifo",), "cap_min_quota": quotas},
            baseline="fifo",
        )
        points = run_sweep(spec, "cap_min_quota")
        assert [p.parameter for p in points] == [1.0, 3.0]
        assert all(type(p.parameter) is float for p in points)  # ints, as floats
        assert points == reference_points(
            base, "fifo", ("cap-fifo",), "cap_min_quota", quotas
        )
        # A smaller B is more carbon-aware.
        assert points[0].carbon_reduction_pct >= points[-1].carbon_reduction_pct - 5.0

    def test_multi_scheduler_jobcount_sweep_in_kubernetes_mode(self):
        base = small_config(mode="kubernetes", per_job_cap=2, seed=6)
        schedulers = ("pcaps", "cap-k8s-default")
        counts = (4, 2)
        spec = CampaignSpec(
            "n", base,
            axes={"scheduler": schedulers, "workload.num_jobs": counts},
            baseline="k8s-default",
        )
        points = run_sweep(spec, "workload.num_jobs")
        # Sorted by value; the policies keep their first-seen order.
        assert [(p.parameter, p.policy) for p in points] == [
            (2.0, "pcaps"), (2.0, "cap-k8s-default"),
            (4.0, "pcaps"), (4.0, "cap-k8s-default"),
        ]
        assert points == reference_points(
            base, "k8s-default", schedulers, "workload.num_jobs", counts
        )

    def test_grid_sweep(self):
        base = small_config(seed=2)
        grids = ("ZA", "CAISO", "DE")
        spec = CampaignSpec(
            "grids", base,
            axes={"scheduler": ("pcaps", "decima"), "grid": grids},
            baseline="fifo",
        )
        points = run_sweep(spec, "grid")
        assert [p.parameter for p in points][::2] == ["CAISO", "DE", "ZA"]
        assert points == reference_points(
            base, "fifo", ("pcaps", "decima"), "grid", grids
        )

    def test_table_shape_grouped_by_scheduler_over_grid_and_offset(self):
        base = small_config(seed=0)
        schedulers = ("fifo", "weighted-fair", "cap-fifo")
        spec = CampaignSpec(
            "t", base,
            axes={
                "scheduler": schedulers,
                "grid": ("DE", "CAISO"),
                "trace_start_step": (0, 977),
            },
            baseline="fifo",
        )
        points = run_sweep(spec, "scheduler")
        replicates = [
            {"grid": grid, "trace_start_step": start}
            for grid in ("DE", "CAISO")
            for start in (0, 977)
        ]
        assert [p.policy for p in points] == ["cap-fifo", "weighted-fair"]
        assert points == reference_points(
            base, "fifo", schedulers, "scheduler", schedulers, replicates
        )


class TestRunSweepFailures:
    def test_failed_trials_are_named(self, monkeypatch):
        original = executor.execute_trial

        def execute_trial(config, carbon_trace=None):
            if config.scheduler == "pcaps" and config.gamma == 0.9:
                raise ValueError("boom")
            return original(config, carbon_trace=carbon_trace)

        monkeypatch.setattr(executor, "execute_trial", execute_trial)
        spec = CampaignSpec(
            "fails", small_config(),
            axes={"scheduler": ("pcaps",), "gamma": (0.1, 0.9)},
            baseline="fifo",
        )
        with pytest.raises(RuntimeError) as excinfo:
            run_sweep(spec, "gamma")
        message = str(excinfo.value)
        assert "'fails'" in message and "gamma=0.9: ValueError: boom" in message
        assert "gamma=0.1" not in message

    def test_a_failed_trial_runs_once(self, monkeypatch):
        """A trial is a pure function of its config, so a second attempt
        would fail the same way after a backoff: each trial runs once."""
        calls = []

        def execute_trial(config, carbon_trace=None):
            calls.append((config.scheduler, config.gamma))
            raise ValueError("boom")

        monkeypatch.setattr(executor, "execute_trial", execute_trial)
        spec = CampaignSpec(
            "fails", small_config(),
            axes={"scheduler": ("pcaps",), "gamma": (0.1, 0.9)},
            baseline="fifo",
        )
        with pytest.raises(RuntimeError):
            run_sweep(spec, "gamma")
        assert calls and len(calls) == len(set(calls))


class TestRunTable:
    def test_table_spec_drops_only_the_trace_offset_axis(self):
        for name in ("table2", "table3"):
            preset = campaign_presets()[name]
            spec = table_spec(name)
            assert spec.base == preset.base
            assert spec.baseline == preset.baseline
            assert spec.axes == tuple(
                axis for axis in preset.axes if axis[0] != "trace_start_step"
            )
            assert {t.trace_start_step for t in spec.trials()} == {0}

    @pytest.mark.parametrize("name", ["table2", "table3"])
    def test_rows_follow_the_preset_with_the_baseline_first(self, name):
        spec = table_spec(name).scaled(num_jobs=2, num_executors=4)
        rows = run_table(spec)
        schedulers = dict(spec.axes)["scheduler"]
        assert list(rows) == [spec.baseline] + [
            s for s in schedulers if s != spec.baseline
        ]
        base_row = rows[spec.baseline]
        assert (
            base_row.carbon_reduction_pct, base_row.ect_ratio, base_row.jct_ratio
        ) == (0.0, 1.0, 1.0)
        by_policy = {p.policy: p for p in run_sweep(spec, "scheduler")}
        for scheduler, row in rows.items():
            assert row.scheduler_name == scheduler
            assert row.baseline_name == spec.baseline
            if scheduler != spec.baseline:
                point = by_policy[scheduler]
                assert row.as_row()[1:] == (
                    point.carbon_reduction_pct, point.ect_ratio, point.jct_ratio
                )


def _record(key: str, metrics: dict, **config) -> TrialRecord:
    return TrialRecord(
        key=key,
        campaign="c",
        config=config_to_dict(small_config(**config)),
        status=STATUS_OK,
        metrics=metrics,
    )


class TestSweepPointOrder:
    """Ordering and normalization from stored records alone."""

    BASE = {"carbon_footprint": 100.0, "ect": 10.0, "avg_jct": 4.0}

    def test_numbers_sort_numerically_and_policies_keep_first_seen_order(self):
        aware = {"carbon_footprint": 80.0, "ect": 12.0, "avg_jct": 6.0}
        records = [
            _record("b10", self.BASE, scheduler="fifo", num_executors=10),
            _record("b9", self.BASE, scheduler="fifo", num_executors=9),
            _record("p10", aware, scheduler="pcaps", num_executors=10),
            _record("d9", aware, scheduler="decima", num_executors=9),
            _record("p9", aware, scheduler="pcaps", num_executors=9),
        ]
        points = sweep_points(records, "fifo", "num_executors")
        assert [(p.parameter, p.policy) for p in points] == [
            (9.0, "pcaps"), (9.0, "decima"), (10.0, "pcaps"),
        ]
        assert points[0] == SweepPoint(
            "pcaps", 9.0, 100.0 * (1.0 - 80.0 / 100.0), 12.0 / 10.0, 6.0 / 4.0
        )

    def test_strings_sort_and_replicates_average_in_record_order(self):
        records = [
            _record("bz", self.BASE, scheduler="fifo", grid="ZA"),
            _record("bc0", self.BASE, scheduler="fifo", grid="CAISO"),
            _record("bc1", self.BASE, scheduler="fifo", grid="CAISO", seed=1),
            _record("pz", self.BASE, scheduler="pcaps", grid="ZA"),
            _record(
                "pc0", {**self.BASE, "carbon_footprint": 90.0},
                scheduler="pcaps", grid="CAISO",
            ),
            _record(
                "pc1", {**self.BASE, "carbon_footprint": 70.0},
                scheduler="pcaps", grid="CAISO", seed=1,
            ),
        ]
        points = sweep_points(records, "fifo", "grid")
        assert [p.parameter for p in points] == ["CAISO", "ZA"]
        assert points[0].carbon_reduction_pct == float(np.mean([10.0, 30.0]))
        assert points[1].carbon_reduction_pct == 0.0

    def test_no_records_no_points(self):
        assert sweep_points([], "fifo", "gamma") == []
