"""Write-ahead journal for the broker queue (crash-safe run recovery).

Every queue state transition — ``submit``, ``lease``, ``charge`` (a
reported failure that consumed one attempt), ``done``, ``failed``,
``cancel`` — is appended as one JSON object per line to a per-run file
under the journal directory (by default ``<runs>/journal`` next to the
RunStore's ``objects/``).  Appends are flushed and fsynced, so after a
``kill -9`` the journal holds a *prefix* of the transitions the broker
acknowledged.  The one exception is ``lease``: replay only counts those
records (a leased-but-unsettled job is pending with or without the
line), so they are buffered and reach the disk, in order, with the next
durable record or ``close()`` — one fsync per job instead of two.

Replay rebuilds queue state from that prefix:

- settled jobs (``done``/``failed`` records) keep their metrics/failure
  and are re-delivered to a re-attaching client without re-execution;
- jobs that were leased but never settled simply have no settling record
  and come back *pending at the same attempt number* — exactly the
  uncharged requeue a lost lease gets on a live broker;
- ``charge`` records restore consumed retry budget, so a job that failed
  twice before the crash still fails fast after it.

The torn tail a crash can leave (a partially written last line) is
tolerated: parsing stops at the first undecodable line, and because any
prefix of a journal is a consistent history, the replayed queue is
always valid (the property ``tests/test_journal.py`` pins).

A run's journal file is deleted when the run is retired (its ``run-done``
was delivered, or it was cancelled and drained), so an always-on broker
garbage-collects its own journal.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, IO, Iterable, List, Optional, Set, Union

#: Journal format version; bump on incompatible record-shape changes.
SCHEMA_VERSION = 1

_SAFE_RUN_ID = re.compile(r"[^A-Za-z0-9._-]+")


def run_file_name(run_id: str) -> str:
    """A filesystem-safe, collision-free file name for a run's journal.

    The readable prefix keeps journals greppable; the digest suffix makes
    hostile or colliding run ids (slashes, unicode, ...) safe.
    """
    digest = hashlib.sha256(run_id.encode("utf-8")).hexdigest()[:12]
    safe = _SAFE_RUN_ID.sub("_", run_id)[:48].strip("._-") or "run"
    return f"{safe}-{digest}.jsonl"


class RunJournal:
    """Append-only record stream for one run (one JSON object per line)."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle: Optional[IO[str]] = open(  # noqa: SIM115 - long-lived
            self.path, "a", encoding="utf-8")

    def append(self, record: Dict[str, object]) -> None:
        """Append one record; durable (write + flush + fsync) unless it
        is a ``lease``, which rides the next durable record's fsync."""
        if self._handle is None:
            raise ValueError(f"journal {self.path} is closed")
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        self._handle.write(line + "\n")
        if record.get("type") != "lease":
            self._handle.flush()
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None


@dataclass
class ReplayedRun:
    """One run's state reconstructed from its journal records."""

    run_id: str
    order: int
    policy: Dict[str, object]
    jobs: List[Dict[str, object]]
    charges: Dict[str, int] = field(default_factory=dict)
    results: Dict[str, Dict[str, float]] = field(default_factory=dict)
    cached: Set[str] = field(default_factory=set)
    failures: Dict[str, Dict[str, object]] = field(default_factory=dict)
    leases: int = 0
    cancelled: bool = False


class JournalDir:
    """A directory of per-run journals with crash-tolerant replay."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    def path_for(self, run_id: str) -> Path:
        return self.root / run_file_name(run_id)

    def open_run(self, run_id: str) -> RunJournal:
        """Open (or reopen, appending) the journal for one run."""
        return RunJournal(self.path_for(run_id))

    def discard(self, run_id: str) -> None:
        """Delete a retired run's journal file (missing is fine)."""
        try:
            self.path_for(run_id).unlink()
        except FileNotFoundError:
            pass
        except OSError:
            pass  # a journal we cannot delete is replayed then re-retired

    def run_files(self) -> List[Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*.jsonl"))

    def replay(self) -> List[ReplayedRun]:
        """Replay every journal in the directory, in submission order."""
        runs = []
        for path in self.run_files():
            state = self.replay_file(path)
            if state is not None:
                runs.append(state)
        runs.sort(key=lambda state: state.order)
        return runs

    def replay_file(self, path: Path) -> Optional[ReplayedRun]:
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return None
        return replay_records(parse_lines(text))


def parse_lines(text: str) -> List[Dict[str, object]]:
    """Decode journal lines, stopping at the first torn/corrupt line.

    A crash can only tear the *tail* of an fsynced append stream, so the
    decodable prefix is exactly the acknowledged history.
    """
    records: List[Dict[str, object]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            break  # torn tail (or corruption): trust only the prefix
        if not isinstance(record, dict):
            break
        records.append(record)
    return records


def replay_records(
        records: Iterable[Dict[str, object]]) -> Optional[ReplayedRun]:
    """Fold a record sequence into a run state (``None`` without a submit).

    Any prefix of a valid journal folds to a consistent state: settled
    keys are a subset of submitted keys, charges only grow, and a missing
    settlement simply leaves the job pending.
    """
    state: Optional[ReplayedRun] = None
    for record in records:
        kind = str(record.get("type", ""))
        if kind == "submit":
            if state is not None:
                break  # one run per file; a second submit is corruption
            state = ReplayedRun(
                run_id=str(record.get("run", "")),
                order=int(record.get("order", 0)),  # type: ignore[arg-type]
                policy=dict(record.get("policy") or {}),  # type: ignore[arg-type]
                jobs=[dict(job) for job in record.get("jobs") or []],  # type: ignore[union-attr]
            )
            continue
        if state is None:
            break  # records before the submit: corruption, stop
        key = str(record.get("key", ""))
        if kind == "lease":
            state.leases += 1
        elif kind == "charge":
            attempts = int(record.get("attempts", 0))  # type: ignore[arg-type]
            state.charges[key] = max(state.charges.get(key, 0), attempts)
        elif kind == "done":
            state.results[key] = dict(record.get("metrics") or {})  # type: ignore[arg-type]
            if record.get("cached"):
                state.cached.add(key)
        elif kind == "failed":
            state.failures[key] = dict(record.get("failure") or {})  # type: ignore[arg-type]
        elif kind == "cancel":
            state.cancelled = True
    if state is not None and not state.run_id:
        return None
    return state
