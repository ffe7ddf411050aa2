"""Deterministic fault injection for the campaign resilience layer.

Long campaigns only produce trustworthy data when the harness survives its
own infrastructure failing underneath it. This module is the controlled way
to make that infrastructure fail *on purpose*: a seeded :class:`FaultPlan`
decides — as a pure function of ``(seed, rule, trial key, occasion)`` —
whether a given execution crashes, hangs, raises, or tears its store write,
so every chaos test and every ``repro faults demo`` run replays the exact
same failure sequence.

Fault kinds
-----------

- ``"crash"`` — the worker process dies at trial entry (``os._exit``), the
  way an OOM kill or a segfault would. Exercises ``BrokenProcessPool``
  recovery; the retry runs the trial from scratch.
- ``"hang"`` — the worker sleeps past the supervisor's per-trial timeout.
  Exercises timeout detection and pool rebuild. Pool mode only.
- ``"error"`` — the trial raises :class:`InjectedFault`. Exercises the
  retry/quarantine path; also the right kind for inline (``workers<=1``)
  runs, where a crash would take the test process down with it.
- ``"torn-write"`` — a store append is truncated mid-line, the way a
  process killed inside ``write(2)`` tears a record. Installed by
  monkeypatching :meth:`ResultStore.append <repro.campaign.store.
  ResultStore.append>` via :func:`torn_store_writes`.

Transport: :func:`activate` also serializes the plan into the
``REPRO_FAULTS`` environment variable, which :class:`~concurrent.futures.
ProcessPoolExecutor` children inherit — worker-side injection needs no
plumbing through payloads.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Iterator

#: Environment variable carrying the active plan into worker processes.
ENV_VAR = "REPRO_FAULTS"

#: Exit status of an injected worker crash (distinguishable in waitpid).
CRASH_EXIT_CODE = 23


class InjectedFault(RuntimeError):
    """Raised by an ``"error"`` fault — a stand-in for any trial-side bug."""


@dataclass(frozen=True)
class FaultRule:
    """One deterministic failure: what fires, where, and when.

    ``occasions`` are 1-based: for worker-side kinds the occasion is the
    supervisor's attempt number, for ``torn-write`` it is the nth append of
    that key seen by this process. An empty tuple means "every occasion".
    ``rate`` gates firing through a seeded hash (1.0 = always), so large
    probabilistic chaos runs stay replayable.
    """

    kind: str  # "crash" | "hang" | "error" | "torn-write"
    key_prefix: str = ""  # trial-key prefix to match ("" = every trial)
    occasions: tuple[int, ...] = (1,)
    rate: float = 1.0
    hang_s: float = 60.0

    KINDS = ("crash", "hang", "error", "torn-write")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; choose from {self.KINDS}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of fault rules; decisions are pure and replayable."""

    seed: int = 0
    rules: tuple[FaultRule, ...] = ()

    def decide(
        self, key: str, occasion: int, kinds: tuple[str, ...] | None = None
    ) -> FaultRule | None:
        """The first rule that fires for ``(key, occasion)``, if any.

        Deterministic: the rate gate hashes ``(seed, rule index, kind,
        key, occasion)``, so two plans built from the same fields make
        identical decisions in any process on any host.
        """
        for index, rule in enumerate(self.rules):
            if kinds is not None and rule.kind not in kinds:
                continue
            if rule.key_prefix and not key.startswith(rule.key_prefix):
                continue
            if rule.occasions and occasion not in rule.occasions:
                continue
            if rule.rate < 1.0:
                token = f"{self.seed}:{index}:{rule.kind}:{key}:{occasion}"
                digest = hashlib.sha256(token.encode("utf-8")).digest()
                fraction = int.from_bytes(digest[:8], "big") / 2**64
                if fraction >= rule.rate:
                    continue
            return rule
        return None

    # -- serialization (env transport to pool workers) -------------------
    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "FaultPlan":
        data = json.loads(payload)
        return cls(
            seed=data.get("seed", 0),
            rules=tuple(
                FaultRule(
                    **{
                        **rule,
                        "occasions": tuple(rule.get("occasions", ())),
                    }
                )
                for rule in data.get("rules", ())
            ),
        )


#: Process-local active plan; the env var is the cross-process twin.
_ACTIVE: FaultPlan | None = None
#: Per-key torn-write occasion counts (process-local by design: store
#: appends happen in the supervising process, not in workers).
_APPEND_COUNTS: dict[str, int] = {}


def activate(plan: FaultPlan) -> None:
    """Install ``plan`` process-wide and export it to future subprocesses."""
    global _ACTIVE
    _ACTIVE = plan
    os.environ[ENV_VAR] = plan.to_json()


def deactivate() -> None:
    global _ACTIVE
    _ACTIVE = None
    _APPEND_COUNTS.clear()
    os.environ.pop(ENV_VAR, None)


def active_plan() -> FaultPlan | None:
    """The plan in force here: the local one, else the inherited env one."""
    if _ACTIVE is not None:
        return _ACTIVE
    payload = os.environ.get(ENV_VAR)
    if not payload:
        return None
    try:
        return FaultPlan.from_json(payload)
    except (ValueError, TypeError):  # a foreign/garbled env value
        return None


@contextmanager
def injecting(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Scoped :func:`activate` for tests and the demo CLI."""
    previous = os.environ.get(ENV_VAR)
    activate(plan)
    try:
        yield plan
    finally:
        deactivate()
        if previous is not None:
            os.environ[ENV_VAR] = previous


# ----------------------------------------------------------------------
# Injection points (called by the campaign executor and store patcher)
# ----------------------------------------------------------------------
def maybe_inject_worker(key: str, attempt: int) -> None:
    """Worker-entry injection: crash, hang, or raise per the active plan.

    No-op without an active plan, so the non-faulting path costs one env
    read.
    """
    plan = active_plan()
    if plan is None:
        return
    rule = plan.decide(key, attempt, kinds=("crash", "hang", "error"))
    if rule is None:
        return
    if rule.kind == "crash":
        os._exit(CRASH_EXIT_CODE)
    if rule.kind == "hang":
        time.sleep(rule.hang_s)
        return
    raise InjectedFault(
        f"injected fault for trial {key} (attempt {attempt})"
    )


def torn_line(key: str, line: str) -> str | None:
    """The truncated replacement for a store line, or ``None`` (write whole).

    Counts appends per key in this process; the rule's ``occasions``
    select which append(s) tear. The torn text is the first half of the
    line with no newline — exactly the residue of a process killed inside
    its ``write``.
    """
    plan = active_plan()
    if plan is None:
        return None
    occasion = _APPEND_COUNTS.get(key, 0) + 1
    _APPEND_COUNTS[key] = occasion
    rule = plan.decide(key, occasion, kinds=("torn-write",))
    if rule is None:
        return None
    return line[: max(1, len(line) // 2)]


@contextmanager
def torn_store_writes() -> Iterator[None]:
    """Monkeypatch :class:`~repro.campaign.store.ResultStore` appends so
    matching records tear per the active plan.

    The injector lives outside the store on purpose: production append
    code stays clean, and the patch is exactly what a test's
    ``monkeypatch`` fixture would install — usable from pytest and from
    ``repro faults demo`` alike.
    """
    from repro.campaign.store import ResultStore

    original = ResultStore.append

    def torn_append(self, record):  # noqa: ANN001 — mirrors the method
        torn = torn_line(record.key, record.to_json() + "\n")
        if torn is None:
            return original(self, record)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self._tail_is_torn():  # the real append heals before writing
            torn = "\n" + torn
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(torn)
            handle.flush()

    ResultStore.append = torn_append
    try:
        yield
    finally:
        ResultStore.append = original


__all__ = [
    "CRASH_EXIT_CODE",
    "ENV_VAR",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "activate",
    "active_plan",
    "deactivate",
    "injecting",
    "maybe_inject_worker",
    "torn_line",
    "torn_store_writes",
]
