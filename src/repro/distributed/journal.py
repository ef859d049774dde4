"""Write-ahead journal for the broker queue (crash-safe run recovery).

Every transition a replay needs — ``submit``, ``charge`` (a reported
failure that consumed one attempt), ``done``, ``failed``, ``cancel`` — is
appended to a per-run file under the journal directory (by default
``<runs>/journal`` next to the RunStore's ``objects/``) as one of the
unit cache's checksummed records
(:func:`~repro.analysis.runstore.encode_record`): one unbuffered
``write``, then an fsync, before the broker acts on the transition.

Replay rebuilds queue state from the records that decode:

- settled jobs (``done``/``failed`` records) keep their metrics/failure
  and are re-delivered to a re-attaching client without re-execution;
- jobs that were leased but never settled simply have no settling record
  and come back *pending at the same attempt number* — exactly the
  uncharged requeue a lost lease gets on a live broker;
- ``charge`` records restore consumed retry budget, so a job that failed
  twice before the crash still fails fast after it.

The torn-data rule is the unit cache's: a record that is torn (a crash
mid-append), fails its checksum or does not parse costs itself and no
other.  Any subset of a journal's records that keeps its ``submit``
folds to a consistent queue (``tests/test_journal.py``); a lost
settlement only means that job runs again, deterministically.  A file
whose ``submit`` is lost replays to no run, and the broker reports and
deletes it.  A run's file is also deleted when the run retires (its
``run-done`` was delivered, or it was cancelled and drained).
"""

from __future__ import annotations

import hashlib
import io
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.analysis.runstore import (SEGMENT_SUFFIX, decode_records,
                                     encode_record)

#: Journal format version; bump on incompatible record-shape changes.
SCHEMA_VERSION = 2

_SAFE_RUN_ID = re.compile(r"[^A-Za-z0-9._-]+")


def run_file_name(run_id: str) -> str:
    """A filesystem-safe, collision-free file name for a run's journal.

    The readable prefix keeps journals greppable; the digest suffix makes
    hostile or colliding run ids (slashes, unicode, ...) safe.
    """
    digest = hashlib.sha256(run_id.encode("utf-8")).hexdigest()[:12]
    safe = _SAFE_RUN_ID.sub("_", run_id)[:48].strip("._-") or "run"
    return f"{safe}-{digest}{SEGMENT_SUFFIX}"


class RunJournal:
    """Append-only record stream for one run."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle: Optional[io.FileIO] = open(  # noqa: SIM115 - long-lived
            self.path, "ab", buffering=0)

    def append(self, record: Dict[str, object]) -> None:
        """Append one record, durably: one write, then an fsync."""
        if self._handle is None:
            raise ValueError(f"journal {self.path} is closed")
        data = encode_record(record)
        if self._handle.write(data) != len(data):
            raise OSError(f"short write to {self.path} (disk full?)")
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
    failures: Dict[str, Dict[str, object]] = field(default_factory=dict)
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

    def discard(self, path: Path) -> None:
        """Delete a journal file (missing is fine; one we cannot delete is
        replayed then discarded again)."""
        try:
            path.unlink()
        except OSError:
            pass

    def replay(self) -> Tuple[List[ReplayedRun], List[Path]]:
        """Replay every journal in the directory.

        Returns the runs in submission order, and the files that replay
        to no run (their ``submit`` is torn or damaged, or missing).
        """
        runs: List[ReplayedRun] = []
        dead: List[Path] = []
        if not self.root.is_dir():
            return runs, dead
        for path in sorted(self.root.glob(f"*{SEGMENT_SUFFIX}")):
            try:
                data = path.read_bytes()
            except OSError:
                continue
            state = replay_records(record for _, record in
                                   decode_records(data) if record is not None)
            if state is None:
                dead.append(path)
            else:
                runs.append(state)
        runs.sort(key=lambda state: state.order)
        return runs, dead


def replay_records(
        records: Iterable[Dict[str, object]]) -> Optional[ReplayedRun]:
    """Fold a record sequence into a run state (``None`` without a submit).

    Any subsequence of a valid journal that keeps its submit folds to a
    consistent state: settled keys are a subset of submitted keys,
    charges only grow, and a missing settlement simply leaves the job
    pending.
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
        if kind == "charge":
            attempts = int(record.get("attempts", 0))  # type: ignore[arg-type]
            state.charges[key] = max(state.charges.get(key, 0), attempts)
        elif kind == "done":
            state.results[key] = dict(record.get("metrics") or {})  # type: ignore[arg-type]
        elif kind == "failed":
            state.failures[key] = dict(record.get("failure") or {})  # type: ignore[arg-type]
        elif kind == "cancel":
            state.cancelled = True
    if state is not None and not state.run_id:
        return None
    return state
