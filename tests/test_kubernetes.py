"""Tests for the Kubernetes control-plane substrate (Section 5.1)."""

import pytest

from repro.carbon.api import CarbonReading
from repro.core.cap import CAPProvisioner
from repro.kubernetes.daemon import (
    CAPQuotaDaemon,
    build_cap_namespace,
)
from repro.kubernetes.objects import (
    DEFAULT_EXECUTOR_CPU,
    DEFAULT_EXECUTOR_MEMORY_GB,
    ExecutorPod,
    Namespace,
    PodPhase,
    ResourceQuota,
)
from repro.schedulers.fifo import KubernetesDefaultScheduler

from conftest import run_sim, staggered_jobs


def make_namespace(executors=4):
    return Namespace(
        name="spark",
        quota=ResourceQuota(
            cpu_limit=executors * DEFAULT_EXECUTOR_CPU,
            memory_limit_gb=executors * DEFAULT_EXECUTOR_MEMORY_GB,
        ),
    )


def reading(intensity, low=50.0, high=450.0, time=0.0):
    return CarbonReading(
        time=time, intensity=intensity, lower_bound=low, upper_bound=high
    )


class TestResourceQuota:
    def test_admission_within_limits(self):
        ns = make_namespace(2)
        pod = ns.request_executor(job_id=0)
        assert pod.phase is PodPhase.PENDING
        assert ns.try_admit(pod)
        assert pod.phase is PodPhase.RUNNING
        assert ns.quota.cpu_used == DEFAULT_EXECUTOR_CPU

    def test_admission_denied_over_quota(self):
        ns = make_namespace(1)
        first = ns.request_executor(job_id=0)
        second = ns.request_executor(job_id=0)
        assert ns.try_admit(first)
        assert not ns.try_admit(second)
        assert second.phase is PodPhase.PENDING

    def test_lowering_quota_never_preempts(self):
        ns = make_namespace(2)
        pods = [ns.request_executor(0), ns.request_executor(0)]
        for pod in pods:
            ns.try_admit(pod)
        ns.quota.set_limits(cpu_limit=0.0, memory_limit_gb=0.0)
        assert all(p.phase is PodPhase.RUNNING for p in pods)
        # ...but nothing new is admitted.
        extra = ns.request_executor(0)
        assert not ns.try_admit(extra)

    def test_completion_releases_quota(self):
        ns = make_namespace(1)
        pod = ns.request_executor(0)
        ns.try_admit(pod)
        ns.complete(pod)
        assert pod.phase is PodPhase.SUCCEEDED
        assert ns.quota.cpu_used == 0.0

    def test_pending_admitted_when_quota_rises(self):
        ns = make_namespace(1)
        a, b = ns.request_executor(0), ns.request_executor(1)
        ns.try_admit(a)
        assert not ns.try_admit(b)
        ns.quota.set_limits(
            cpu_limit=2 * DEFAULT_EXECUTOR_CPU,
            memory_limit_gb=2 * DEFAULT_EXECUTOR_MEMORY_GB,
        )
        assert ns.admit_pending() == 1
        assert b.phase is PodPhase.RUNNING

    def test_headroom_counts_executors(self):
        ns = make_namespace(3)
        assert ns.quota.executor_headroom() == 3
        pod = ns.request_executor(0)
        ns.try_admit(pod)
        assert ns.quota.executor_headroom() == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            ResourceQuota(cpu_limit=-1, memory_limit_gb=1)
        with pytest.raises(ValueError):
            ExecutorPod(name="x", job_id=0, cpu=0.0)
        ns = make_namespace(1)
        pod = ns.request_executor(0)
        with pytest.raises(ValueError):
            ns.complete(pod)  # not running yet

    def test_double_admit_rejected(self):
        ns = make_namespace(2)
        pod = ns.request_executor(0)
        ns.try_admit(pod)
        with pytest.raises(ValueError):
            ns.try_admit(pod)


class TestCAPQuotaDaemon:
    def test_quota_matches_cap_thresholds(self):
        """The daemon and CAPProvisioner share the same threshold math."""
        ns = make_namespace(10)
        daemon = CAPQuotaDaemon(ns, total_executors=10, min_quota=2)
        cap = CAPProvisioner(total_executors=10, min_quota=2)
        for intensity in (50.0, 150.0, 300.0, 450.0):
            r = reading(intensity)
            expected = cap.thresholds_for(50.0, 450.0).quota(intensity)
            assert daemon.executor_quota(r) == expected

    def test_on_reading_rewrites_namespace_quota(self):
        ns = make_namespace(10)
        daemon = CAPQuotaDaemon(ns, total_executors=10, min_quota=2)
        quota = daemon.on_reading(reading(450.0))
        assert quota == 2
        assert ns.quota.cpu_limit == pytest.approx(2 * DEFAULT_EXECUTOR_CPU)
        assert ns.quota.executor_headroom() == 2

    def test_update_log(self):
        ns = make_namespace(4)
        daemon = CAPQuotaDaemon(ns, total_executors=4, min_quota=1)
        daemon.on_reading(reading(450.0, time=0.0))
        daemon.on_reading(reading(50.0, time=60.0))
        assert [q for _, q in daemon.update_log] == [1, 4]

    def test_validation(self):
        ns = make_namespace(2)
        with pytest.raises(ValueError):
            CAPQuotaDaemon(ns, total_executors=0, min_quota=1)
        with pytest.raises(ValueError):
            CAPQuotaDaemon(ns, total_executors=2, min_quota=3)


class TestQuotaDaemonProvisioner:
    def test_equivalent_to_direct_cap(self, square_trace, tiny_dag):
        """Driving the engine through the namespace quota produces the same
        schedule as the direct CAP provisioner."""
        subs = staggered_jobs([tiny_dag] * 5, gap=120.0)
        direct = run_sim(
            KubernetesDefaultScheduler(), subs, square_trace,
            num_executors=4,
            provisioner=CAPProvisioner(total_executors=4, min_quota=1),
        )
        _, _, adapter = build_cap_namespace(total_executors=4, min_quota=1)
        via_k8s = run_sim(
            KubernetesDefaultScheduler(), subs, square_trace,
            num_executors=4, provisioner=adapter,
        )
        assert via_k8s.ect == pytest.approx(direct.ect)
        assert via_k8s.carbon_footprint == pytest.approx(
            direct.carbon_footprint
        )
        assert [q.quota for q in via_k8s.trace.quotas] == [
            q.quota for q in direct.trace.quotas
        ]

    def test_parallelism_scaling_matches_cap_rule(self):
        _, daemon, adapter = build_cap_namespace(total_executors=10, min_quota=2)
        adapter._last_quota = 5
        assert adapter.scale_parallelism(8, view=None) == 4

    def test_reset_clears_log(self, square_trace, tiny_dag):
        _, daemon, adapter = build_cap_namespace(total_executors=4, min_quota=1)
        run_sim(
            KubernetesDefaultScheduler(),
            staggered_jobs([tiny_dag]),
            square_trace,
            provisioner=adapter,
        )
        assert daemon.update_log  # engine reset() cleared, then repopulated
