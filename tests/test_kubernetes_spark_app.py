"""Tests for the Spark dynamic-allocation application model."""

import pytest

from repro.kubernetes.objects import (
    DEFAULT_EXECUTOR_CPU,
    DEFAULT_EXECUTOR_MEMORY_GB,
    Namespace,
    ResourceQuota,
)
from repro.kubernetes.spark_app import SparkApplication


def make_app(executors=8, max_executors=4, idle_timeout=1.0):
    namespace = Namespace(
        name="spark",
        quota=ResourceQuota(
            cpu_limit=executors * DEFAULT_EXECUTOR_CPU,
            memory_limit_gb=executors * DEFAULT_EXECUTOR_MEMORY_GB,
        ),
    )
    return SparkApplication(
        app_id=0,
        namespace=namespace,
        max_executors=max_executors,
        idle_timeout_s=idle_timeout,
    )


class TestScaleUp:
    def test_requests_match_backlog(self):
        app = make_app()
        stats = app.reconcile(backlog_tasks=3, now=0.0)
        assert stats == {"requested": 3, "admitted": 3, "released": 0}
        assert len(app.running_executors) == 3

    def test_capped_at_max_executors(self):
        app = make_app(max_executors=4)
        app.reconcile(backlog_tasks=50, now=0.0)
        assert len(app.running_executors) == 4

    def test_quota_leaves_pods_pending(self):
        app = make_app(executors=2, max_executors=4)
        stats = app.reconcile(backlog_tasks=4, now=0.0)
        assert stats["requested"] == 4
        assert stats["admitted"] == 2
        assert len(app.pending_executors) == 2

    def test_pending_admitted_after_quota_raise(self):
        app = make_app(executors=2, max_executors=4)
        app.reconcile(backlog_tasks=4, now=0.0)
        app.namespace.quota.set_limits(
            cpu_limit=4 * DEFAULT_EXECUTOR_CPU,
            memory_limit_gb=4 * DEFAULT_EXECUTOR_MEMORY_GB,
        )
        stats = app.reconcile(backlog_tasks=4, now=1.0)
        assert stats["admitted"] == 2
        assert len(app.running_executors) == 4

    def test_no_duplicate_requests_for_existing_pods(self):
        app = make_app()
        app.reconcile(backlog_tasks=3, now=0.0)
        stats = app.reconcile(backlog_tasks=3, now=1.0)
        assert stats["requested"] == 0


class TestScaleDown:
    def test_idle_executor_released_after_timeout(self):
        app = make_app(idle_timeout=5.0)
        app.reconcile(backlog_tasks=2, now=0.0)
        pod = app.running_executors[0]
        app.mark_idle(pod.name, now=10.0)
        stats = app.reconcile(backlog_tasks=0, now=14.0)
        assert stats["released"] == 0  # not yet: 4 s idle < 5 s timeout
        stats = app.reconcile(backlog_tasks=0, now=15.0)
        assert stats["released"] == 1
        assert pod.name not in app.executors

    def test_busy_cancels_idle_countdown(self):
        app = make_app(idle_timeout=5.0)
        app.reconcile(backlog_tasks=1, now=0.0)
        pod = app.running_executors[0]
        app.mark_idle(pod.name, now=0.0)
        app.mark_busy(pod.name)
        stats = app.reconcile(backlog_tasks=1, now=100.0)
        assert stats["released"] == 0

    def test_release_returns_quota(self):
        app = make_app(executors=2, max_executors=2, idle_timeout=0.0)
        app.reconcile(backlog_tasks=2, now=0.0)
        pod = app.running_executors[0]
        app.mark_idle(pod.name, now=1.0)
        app.reconcile(backlog_tasks=1, now=2.0)
        assert app.namespace.quota.executor_headroom() == 1

    def test_shutdown_releases_everything(self):
        app = make_app()
        app.reconcile(backlog_tasks=3, now=0.0)
        assert app.shutdown() == 3
        assert app.namespace.quota.cpu_used == 0.0
        assert not app.executors


class TestValidation:
    def test_bad_params(self):
        with pytest.raises(ValueError):
            make_app(max_executors=0)
        with pytest.raises(ValueError):
            make_app(idle_timeout=-1.0)

    def test_negative_backlog_rejected(self):
        with pytest.raises(ValueError):
            make_app().target_executors(-1)

    def test_unknown_pod_rejected(self):
        app = make_app()
        with pytest.raises(KeyError):
            app.mark_idle("nope", now=0.0)
        with pytest.raises(KeyError):
            app.mark_busy("nope")
