"""Worker-supervision policy for campaign runs.

The executor's pool loop consults one :class:`SupervisorConfig` for every
resilience decision it lets a user set: how long a trial may run before its
worker is presumed hung, and how many attempts a trial key gets before it
is quarantined. Between two attempts of one key it waits
:func:`backoff_delay`.

Backoff is *seeded*: the delay for ``(key, attempt)`` is a pure function of
``(key, attempt)``, so a rerun of a flaky campaign replays the identical
retry schedule — determinism extends to the failure path, not just the
results.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Seeded exponential backoff between attempts of one key:
#: ``min(BACKOFF_MAX_S, BACKOFF_BASE_S * BACKOFF_FACTOR**(attempt-1))``
#: scaled by a jitter in [0.5, 1.0) drawn from
#: ``Random(f"{BACKOFF_SEED}:{key}:{attempt}")``. Read at call time, so a
#: test that wants fast retries patches ``BACKOFF_BASE_S``.
BACKOFF_BASE_S = 0.05
BACKOFF_FACTOR = 2.0
BACKOFF_MAX_S = 2.0
BACKOFF_SEED = 0


@dataclass(frozen=True)
class SupervisorConfig:
    """Resilience knobs for :class:`~repro.campaign.executor.CampaignRunner`.

    Parameters
    ----------
    trial_timeout_s:
        Wall-clock budget per attempt in pool mode. A worker that exceeds
        it is presumed hung: the attempt is charged, the pool is rebuilt
        (the only way to reclaim a hung ``ProcessPoolExecutor`` worker),
        and sibling in-flight trials are resubmitted without charge.
        ``None`` disables timeouts (the default — simulations are fast).
    max_attempts:
        Attempt budget per trial key, including the first attempt. A key
        that exhausts it is *quarantined*: recorded as a failed
        :class:`~repro.campaign.store.TrialRecord` carrying the attempt
        history, and never retried again this run.
    """

    trial_timeout_s: float | None = None
    max_attempts: int = 2

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.trial_timeout_s is not None and self.trial_timeout_s <= 0:
            raise ValueError("trial_timeout_s must be positive (or None)")


def backoff_delay(key: str, attempt: int) -> float:
    """Seconds to wait before re-running ``key`` after failed ``attempt``.

    Deterministic: equal ``(key, attempt)`` always yields the equal delay,
    on any host, so chaos tests can assert exact schedules.
    """
    base = min(BACKOFF_MAX_S, BACKOFF_BASE_S * BACKOFF_FACTOR ** max(0, attempt - 1))
    jitter = random.Random(f"{BACKOFF_SEED}:{key}:{attempt}").random()
    return base * (0.5 + 0.5 * jitter)


class CampaignInterrupted(RuntimeError):
    """Raised when a SIGINT/SIGTERM (or :meth:`~repro.campaign.executor.
    CampaignRunner.request_shutdown`) stops a run mid-campaign.

    By the time this propagates, every trial that *completed* before the
    stop has been drained into the store — a follow-up ``resume`` picks up
    exactly where the interrupted run left off.
    """

    def __init__(self, completed: int, pending: int) -> None:
        super().__init__(
            f"campaign interrupted: {completed} completed trial(s) drained "
            f"to the store, {pending} still pending"
        )
        self.completed = completed
        self.pending = pending


__all__ = [
    "CampaignInterrupted",
    "SupervisorConfig",
    "backoff_delay",
]
