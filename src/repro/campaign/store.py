"""Append-only JSONL result store.

Each completed (or failed) trial is one JSON line holding the trial key, the
campaign that requested it, the fully-resolved config, and a metric summary
of the :class:`~repro.simulator.metrics.ExperimentResult`. Appending is the
only write operation, so a crashed campaign leaves a valid store and
resuming is just "skip keys that already have an ``ok`` record".

Crash safety is two-sided:

- **writes** are atomic at line granularity: :meth:`ResultStore.append`
  serializes the full line first and hands it to the OS as a single
  ``write`` call followed by a flush, so a process killed mid-append can
  truncate at most its own trailing line, never interleave with another
  worker's line;
- **reads** are lenient: :meth:`ResultStore.records` skips lines that do
  not parse as complete records (the truncated tail of a killed process, a
  disk-full torso) while counting them, so one torn line never poisons
  resume for the rest of the store. :meth:`ResultStore.verify` reports
  store health and :meth:`ResultStore.repair` rewrites a clean store
  (keeping a ``.bak`` of the original) — surfaced as
  ``repro campaign verify``.

:class:`TrialRecord` deliberately exposes ``scheduler_name``,
``carbon_footprint``, ``ect`` and ``avg_jct`` with the same meaning as
:class:`~repro.simulator.metrics.ExperimentResult`, so
:func:`~repro.simulator.metrics.compare_to_baseline` accepts stored records
directly — reports never need to re-run a simulation.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Iterable

from repro.ioutil import atomic_write_text
from repro.obs.observer import current as _current_observer
from repro.simulator.metrics import ExperimentResult

STATUS_OK = "ok"
STATUS_ERROR = "error"


def result_metrics(result: ExperimentResult) -> dict[str, Any]:
    """The summary serialized for one successful trial."""
    return {
        "carbon_footprint": result.carbon_footprint,
        "ect": result.ect,
        "avg_jct": result.avg_jct,
        "num_jobs": result.num_jobs,
        "total_busy_time": result.total_busy_time,
        "utilization": result.utilization(),
        "scheduler_time_s": result.scheduler_time_s,
        "scheduler_invocations": result.scheduler_invocations,
        "avg_scheduler_latency_s": result.avg_scheduler_latency_s,
    }


@dataclass(frozen=True)
class TrialRecord:
    """One stored trial: key + config + outcome.

    ``attempts`` counts executions the supervisor charged to this trial
    before the recorded outcome (1 for a first-try success);
    ``attempt_errors`` keeps the per-attempt failure summaries so flaky
    trials stay diagnosable from the store alone.
    """

    key: str
    campaign: str
    config: dict[str, Any]
    status: str
    metrics: dict[str, Any] | None = None
    error: str | None = None
    duration_s: float = 0.0
    attempts: int = 1
    attempt_errors: list[str] | None = None

    @property
    def ok(self) -> bool:
        """Successful *and usable*: an ``ok`` status with no metrics (a
        hand-edited or torn-and-glued store line) must not be served as a
        resume cache hit — it would permanently mask the trial while
        crashing every aggregation that reads its metrics."""
        return self.status == STATUS_OK and self.metrics is not None

    # -- ExperimentResult-compatible views (for compare_to_baseline) -----
    @property
    def scheduler_name(self) -> str:
        return self.config["scheduler"]

    @property
    def carbon_footprint(self) -> float:
        return self._metric("carbon_footprint")

    @property
    def ect(self) -> float:
        return self._metric("ect")

    @property
    def avg_jct(self) -> float:
        return self._metric("avg_jct")

    def _metric(self, name: str) -> float:
        if self.metrics is None:
            raise ValueError(f"trial {self.key} has no metrics (status={self.status})")
        return float(self.metrics[name])

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


#: Fields a stored line must carry to count as a valid record. Older stores
#: (pre-``attempts``) remain readable because the newer fields default.
_REQUIRED_FIELDS = ("key", "campaign", "config", "status")


@dataclass
class StoreCheck:
    """What :meth:`ResultStore.verify` found in one pass over the file."""

    path: Path
    total_lines: int = 0
    valid_records: int = 0
    corrupt_lines: list[int] = field(default_factory=list)  # 1-based
    unique_keys: int = 0
    superseded: int = 0  # valid lines shadowed by a later same-key line
    ok_records: int = 0
    failed_records: int = 0

    @property
    def clean(self) -> bool:
        return not self.corrupt_lines

    def summary(self) -> str:
        state = "clean" if self.clean else f"{len(self.corrupt_lines)} corrupt line(s)"
        return (
            f"{self.path}: {state} — {self.valid_records} valid record(s) on "
            f"{self.total_lines} line(s), {self.unique_keys} unique key(s) "
            f"({self.ok_records} ok / {self.failed_records} failed, "
            f"{self.superseded} superseded)"
        )


class ResultStore:
    """Append-only JSONL store of :class:`TrialRecord` lines.

    Later records for a key supersede earlier ones (e.g. a failed trial
    re-run to success), so loading dedupes by key keeping the last line.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        #: Corrupt lines skipped by the most recent read (diagnostics).
        self.last_corrupt_count = 0

    def __len__(self) -> int:
        return len(self.records())

    def append(self, record: TrialRecord) -> None:
        """Append one record as a single atomic line write.

        The full line (payload + newline) is serialized before the file is
        touched and handed to the OS in one ``write`` call, then flushed —
        a worker killed mid-append can only ever leave a truncated *tail*,
        which the lenient reader skips. If the existing tail is such a
        torn fragment (no trailing newline), a newline is prepended first
        so the new record never glues onto the residue.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = record.to_json() + "\n"
        if self._tail_is_torn():
            line = "\n" + line
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(line)
            handle.flush()

    def _tail_is_torn(self) -> bool:
        """True when the file ends mid-line — the residue of a killed
        writer — so the next append must start on a fresh line."""
        try:
            with self.path.open("rb") as handle:
                handle.seek(-1, os.SEEK_END)
                return handle.read(1) != b"\n"
        except (FileNotFoundError, OSError):  # missing or empty file
            return False

    def _scan(self) -> tuple[list[tuple[int, TrialRecord]], list[int]]:
        """Every parseable record with its 1-based line number, plus the
        line numbers that failed to parse as complete records."""
        parsed: list[tuple[int, TrialRecord]] = []
        corrupt: list[int] = []
        if not self.path.exists():
            return parsed, corrupt
        with self.path.open("r", encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                stripped = line.strip()
                if not stripped:
                    continue
                try:
                    data = json.loads(stripped)
                    if not isinstance(data, dict) or any(
                        name not in data for name in _REQUIRED_FIELDS
                    ):
                        raise ValueError("not a trial record")
                    record = TrialRecord(
                        **{
                            k: data[k]
                            for k in TrialRecord.__dataclass_fields__
                            if k in data
                        }
                    )
                except (ValueError, TypeError):
                    corrupt.append(number)
                    continue
                parsed.append((number, record))
        self.last_corrupt_count = len(corrupt)
        if corrupt:
            observer = _current_observer()
            if observer is not None:
                observer.registry.counter(
                    "store.corrupt_lines_skipped"
                ).inc(len(corrupt))
        return parsed, corrupt

    def records(self) -> list[TrialRecord]:
        """All stored records, deduped by key (last write wins).

        Lenient by design: lines that do not parse as complete records —
        the truncated tail of a killed worker, a torn mid-file write — are
        skipped and counted (:attr:`last_corrupt_count`, plus the
        ``store.corrupt_lines_skipped`` obs counter) instead of raising,
        so one bad line never blocks resume for the whole store.
        """
        parsed, _ = self._scan()
        by_key: dict[str, TrialRecord] = {}
        for _, record in parsed:
            by_key[record.key] = record
        return list(by_key.values())

    def completed(self) -> dict[str, TrialRecord]:
        """Successful records by key — the resume/cache lookup table.

        Lookup is content-addressed and deliberately ignores the campaign
        name: overlapping sweeps share trials.
        """
        return {r.key: r for r in self.records() if r.ok}

    def latest(self, keys: Iterable[str]) -> list[TrialRecord]:
        """The latest stored record per key — ok *or* failed — in order.

        The failure-aware companion to :meth:`select`: callers that need
        to distinguish "never ran" (absent) from "ran and failed" (present
        with ``ok == False``) read this; keys with no record at all are
        omitted.
        """
        by_key = {r.key: r for r in self.records()}
        return [by_key[k] for k in keys if k in by_key]

    def select(self, keys: Iterable[str]) -> list[TrialRecord]:
        """Successful stored records for the given trial keys, in order.

        Keys whose latest record is a *failure* are dropped here (this is
        the cache-lookup view); use :meth:`latest` when failed outcomes
        must stay visible.
        """
        completed = self.completed()
        return [completed[k] for k in keys if k in completed]

    # -- health -----------------------------------------------------------
    def verify(self) -> StoreCheck:
        """One read-only pass: line counts, corrupt lines, key statistics."""
        parsed, corrupt = self._scan()
        total_lines = 0
        if self.path.exists():
            with self.path.open("r", encoding="utf-8") as handle:
                total_lines = sum(1 for line in handle if line.strip())
        by_key: dict[str, TrialRecord] = {}
        for _, record in parsed:
            by_key[record.key] = record
        return StoreCheck(
            path=self.path,
            total_lines=total_lines,
            valid_records=len(parsed),
            corrupt_lines=corrupt,
            unique_keys=len(by_key),
            superseded=len(parsed) - len(by_key),
            ok_records=sum(1 for r in by_key.values() if r.ok),
            failed_records=sum(1 for r in by_key.values() if not r.ok),
        )

    def repair(self, backup_suffix: str = ".bak") -> StoreCheck:
        """Rewrite the store keeping only valid lines; original kept as
        ``<path><backup_suffix>``.

        Valid lines are preserved verbatim in order (including superseded
        duplicates — the append-only history stays intact); only corrupt
        lines are dropped. The rewrite is atomic (temp + rename) and the
        backup is written first, so every intermediate crash state still
        holds a complete copy of the original bytes. Returns the
        :class:`StoreCheck` describing what was repaired.
        """
        check = self.verify()
        if not self.path.exists() or check.clean:
            return check
        parsed, _ = self._scan()
        valid_numbers = {number for number, _ in parsed}
        kept: list[str] = []
        with self.path.open("r", encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                if number in valid_numbers:
                    kept.append(line.strip() + "\n")
        backup = self.path.with_name(self.path.name + backup_suffix)
        backup.write_bytes(self.path.read_bytes())
        atomic_write_text(self.path, "".join(kept))
        return check
