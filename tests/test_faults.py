"""Chaos suite: every supervision recovery path, proven by injected faults.

Pure-function tests pin :mod:`repro.faults` determinism; the chaos tests
run real campaigns under seeded crashes, hangs, injected errors, and torn
store writes, and assert the campaign still converges to the same results
an undisrupted run produces.

Crash and hang faults only appear in pool-mode tests — injected inline
they would take the pytest process down with them (that asymmetry is by
design; see the module docstring of :mod:`repro.faults`).
"""

import io
import json
import os
from contextlib import redirect_stdout

import pytest

from test_campaign import tiny_spec

from repro import faults
from repro.campaign.executor import CampaignRunner
from repro.campaign.store import ResultStore
from repro.campaign.supervise import SupervisorConfig
from repro.obs.observer import collecting


class TestFaultPlanDeterminism:
    def test_decide_matches_kind_prefix_and_occasion(self):
        plan = faults.FaultPlan(
            rules=(
                faults.FaultRule(kind="crash", key_prefix="ab", occasions=(2,)),
                faults.FaultRule(kind="error", occasions=()),
            )
        )
        assert plan.decide("abcd", 2).kind == "crash"
        assert plan.decide("abcd", 1).kind == "error"  # occasion 2 only
        assert plan.decide("zzzz", 2).kind == "error"  # prefix mismatch
        assert plan.decide("abcd", 7).kind == "error"  # empty = every occasion
        assert plan.decide("abcd", 2, kinds=("error",)).kind == "error"

    def test_rate_gate_is_seeded_and_stable(self):
        plan = faults.FaultPlan(
            seed=42, rules=(faults.FaultRule(kind="error", rate=0.5),)
        )
        decisions = [plan.decide(f"key-{i}", 1) is not None for i in range(64)]
        again = [plan.decide(f"key-{i}", 1) is not None for i in range(64)]
        assert decisions == again  # pure function of (seed, key, occasion)
        assert 10 < sum(decisions) < 54  # the gate actually gates
        other_seed = faults.FaultPlan(
            seed=43, rules=(faults.FaultRule(kind="error", rate=0.5),)
        )
        assert [
            other_seed.decide(f"key-{i}", 1) is not None for i in range(64)
        ] != decisions

    def test_json_round_trip(self):
        plan = faults.FaultPlan(
            seed=9,
            rules=(
                faults.FaultRule(kind="hang", occasions=(1, 3), hang_s=5.0),
                faults.FaultRule(kind="crash", key_prefix="ab", rate=0.25),
            ),
        )
        assert faults.FaultPlan.from_json(plan.to_json()) == plan

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            faults.FaultRule(kind="meteor-strike")
        with pytest.raises(ValueError):
            faults.FaultRule(kind="error", rate=1.5)

    def test_env_transport(self):
        plan = faults.FaultPlan(rules=(faults.FaultRule(kind="error"),))
        assert faults.active_plan() is None
        with faults.injecting(plan):
            assert os.environ[faults.ENV_VAR] == plan.to_json()
            assert faults.active_plan() == plan
        assert faults.ENV_VAR not in os.environ
        assert faults.active_plan() is None

    def test_garbled_env_is_ignored(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "{not json")
        assert faults.active_plan() is None

    def test_torn_line_counts_occasions_per_key(self):
        plan = faults.FaultPlan(
            rules=(faults.FaultRule(kind="torn-write", occasions=(2,)),)
        )
        with faults.injecting(plan):
            line = '{"key": "k", "status": "ok"}\n'
            assert faults.torn_line("k", line) is None  # occasion 1: whole
            torn = faults.torn_line("k", line)  # occasion 2: tears
            assert torn == line[: len(line) // 2]
            assert not torn.endswith("\n")
            assert faults.torn_line("k", line) is None  # occasion 3: whole
            assert faults.torn_line("other", line) is None  # separate count


class TestInlineChaos:
    """Inline-safe kinds: error faults and torn store writes."""

    def test_error_fault_retried_then_clean(self, tmp_path, fast_backoff):
        plan = faults.FaultPlan(
            rules=(faults.FaultRule(kind="error", occasions=(1,)),)
        )
        runner = CampaignRunner(
            ResultStore(tmp_path / "r.jsonl"), workers=0,
            supervisor=SupervisorConfig(max_attempts=2),
        )
        with faults.injecting(plan):
            run = runner.run(tiny_spec())
        assert not run.failures
        assert all(r.attempts == 2 for r in run.records)
        assert all(
            "injected fault" in r.attempt_errors[0] for r in run.records
        )

    def test_persistent_error_fault_quarantines(self, tmp_path, fast_backoff):
        plan = faults.FaultPlan(
            rules=(faults.FaultRule(kind="error", occasions=()),)  # every attempt
        )
        runner = CampaignRunner(
            ResultStore(tmp_path / "r.jsonl"), workers=0,
            supervisor=SupervisorConfig(max_attempts=2),
        )
        with faults.injecting(plan):
            run = runner.run(tiny_spec())
        assert len(run.failures) == 4
        assert all(r.attempts == 2 for r in run.failures)
        assert all("injected fault" in r.error for r in run.failures)

    def test_torn_writes_then_resume_matches_undisrupted_run(self, tmp_path):
        """The flagship store-chaos scenario: every first append tears, the
        lenient reader discards the fragments, and a clean resume rebuilds
        the store to exactly the state an undisrupted run produces."""
        spec = tiny_spec()
        undisrupted_store = ResultStore(tmp_path / "clean.jsonl")
        CampaignRunner(undisrupted_store, workers=0).run(spec)

        chaos_store = ResultStore(tmp_path / "chaos.jsonl")
        plan = faults.FaultPlan(
            rules=(faults.FaultRule(kind="torn-write", occasions=(1,)),)
        )
        with faults.injecting(plan), faults.torn_store_writes():
            first = CampaignRunner(chaos_store, workers=0).run(spec)
        assert not first.failures  # in-memory results unaffected
        assert chaos_store.completed() == {}  # but every append tore
        assert chaos_store.last_corrupt_count >= 1

        resumed = CampaignRunner(chaos_store, workers=0).run(spec)
        assert resumed.stats.misses == 4 and not resumed.failures
        final = {k: r.metrics for k, r in chaos_store.completed().items()}
        reference = {
            k: r.metrics for k, r in undisrupted_store.completed().items()
        }
        assert final == reference

    def test_partial_torn_writes_resume_only_the_lost_keys(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore(tmp_path / "r.jsonl")
        plan = faults.FaultPlan(
            rules=(faults.FaultRule(kind="torn-write", occasions=(1,), rate=0.5),)
        )
        # The rate gate hashes the trial keys, which by default fold in a
        # hash of every source file; a pinned code version keeps the
        # seeded split (2 of 4 torn) independent of unrelated code edits.
        code_version = "chaos-a"
        with faults.injecting(plan), faults.torn_store_writes():
            CampaignRunner(store, workers=0, code_version=code_version).run(spec)
        survived = len(store.completed())
        assert 0 < survived < 4  # seeded gate tears some, not all
        resumed = CampaignRunner(
            store, workers=0, code_version=code_version
        ).run(spec)
        assert resumed.stats.hits == survived
        assert resumed.stats.misses == 4 - survived
        assert len(store.completed()) == 4


@pytest.mark.usefixtures("fast_backoff")
class TestPoolChaos:
    """Process-level faults against the real supervised pool."""

    def supervisor(self, tmp_path=None, **overrides):
        params = dict(trial_timeout_s=5.0, max_attempts=3)
        params.update(overrides)
        return SupervisorConfig(**params)

    def test_worker_crash_breaks_pool_and_campaign_recovers(self, tmp_path):
        """A crashed worker takes the whole pool down (BrokenProcessPool);
        the supervisor rebuilds it and every trial still completes."""
        spec = tiny_spec()
        reference = {
            r.key: r.metrics
            for r in CampaignRunner(
                ResultStore(tmp_path / "ref.jsonl"), workers=0
            ).run(spec).records
        }
        plan = faults.FaultPlan(
            rules=(faults.FaultRule(kind="crash", occasions=(1,)),)
        )
        store = ResultStore(tmp_path / "r.jsonl")
        with collecting("pool-crash") as observer, faults.injecting(plan):
            run = CampaignRunner(
                store, workers=2, supervisor=self.supervisor()
            ).run(spec)
            assert observer.registry.value("campaign.pool_rebuilds") >= 1
            assert observer.registry.value("campaign.retries") >= 1
        assert not run.failures
        assert {r.key: r.metrics for r in run.records} == reference

    def test_hung_worker_times_out_and_campaign_recovers(self, tmp_path):
        plan = faults.FaultPlan(
            rules=(faults.FaultRule(kind="hang", occasions=(1,), hang_s=60.0),)
        )
        store = ResultStore(tmp_path / "r.jsonl")
        with collecting("pool-hang") as observer, faults.injecting(plan):
            run = CampaignRunner(
                store, workers=2,
                supervisor=self.supervisor(trial_timeout_s=1.5),
            ).run(tiny_spec())
            assert observer.registry.value("campaign.timeouts") >= 1
            assert observer.registry.value("campaign.pool_rebuilds") >= 1
        assert not run.failures
        assert len(store.completed()) == 4


class TestFaultsDemoCli:
    def test_demo_runs_end_to_end(self, tmp_path):
        from repro.cli import main

        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(
                ["faults", "demo", "--seed", "0",
                 "--store", str(tmp_path / "demo.jsonl")]
            )
        out = buf.getvalue()
        assert code == 0, out
        assert "demo ok" in out
        store = ResultStore(tmp_path / "demo.jsonl")
        records = store.completed()
        assert len(records) == 2  # fifo + pcaps
        assert store.verify().clean

    def test_demo_parser_round_trip(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["faults", "demo", "--seed", "7", "--store", "/tmp/x.jsonl"]
        )
        assert args.seed == 7


def test_crash_exit_code_is_distinctive():
    assert faults.CRASH_EXIT_CODE == 23
    assert json.loads(faults.FaultPlan().to_json())["seed"] == 0
