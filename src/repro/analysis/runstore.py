"""RunStore — named, content-addressed persistence of ResultSets.

The scenario framework produces deterministic
:class:`~repro.analysis.resultset.ResultSet` JSON; this module gives it a
place to live so studies can be tracked longitudinally and interrupted
grids can resume.  A store is a plain directory (``runs/`` by default,
overridable with ``--runs-dir`` or ``$REPRO_RUNS_DIR``)::

    runs/
      objects/<sha256 of payload>.json   # ResultSet JSON, content-addressed
      named/<name>.json                  # name -> object pointer + metadata
      units/<time>-<pid>-<nonce>.seg     # finished unit-job metrics (resume):
                                         #   one checksummed record per unit,
                                         #   append-only

``save`` stores one object per distinct content (re-saving identical
results under a new name just adds a pointer; both files are written
through a temp file + rename, so a kill mid-save leaves the old state or
the new, never a torn object) and ``load`` verifies the content hash on
the way back in, so a corrupted object fails loudly instead of feeding a
comparison silently.  The ``units/`` tier is the resume cache of the
execution layer: every finished
:class:`~repro.scenarios.execution.UnitJob` is recorded under its
spec-hash key, and re-running a plan skips the jobs already present.

Every ``RunStore`` instance that writes units owns one segment, created
exclusively on its first ``put_unit`` and appended to by nobody else, so
any number of processes share a ``--runs-dir`` without locking.  A unit
is one checksummed record handed to the kernel in a single unbuffered
``write`` before ``put_unit`` returns — not fsynced: a finished unit
survives the death of the process, not a power loss.  Reads go through an
in-memory ``key -> metrics`` index (memory is O(live units)) that every
``get_unit``/``completed_units`` refreshes incrementally — one
``listdir``, one ``stat`` per segment, and a parse of only the bytes
appended since the last look — so two workers dedupe through each other's
segments as they grow.  A later record for a key supersedes an earlier
one (``--no-resume``).  Per-file ``units/<key>.json`` entries of the
earlier layout are ignored (the cache simply misses) and collected by
``gc``.

Records (:func:`encode_record` / :func:`decode_records`) are the one
durable format of the package, shared with the broker's write-ahead
journal (:mod:`repro.distributed.journal`), and obey one torn-data rule:
a record that is torn, fails its checksum or does not parse costs itself
and no other — for the unit cache a miss, never an error or wrong hit.

Usage::

    from repro.analysis.runstore import RunStore
    from repro.scenarios import run_study

    store = RunStore()                          # ./runs
    results = run_study("figure1", store=store) # unit jobs cached as they finish
    store.save(results, "figure1-nightly")
    again = store.load("figure1-nightly")       # identical ResultSet
    for record in store.list():
        print(record.name, record.results, record.object_hash)

Lifecycle: because objects are content-addressed and units are cached for
every executed plan (saved or not), a long-lived store accumulates garbage.
``gc`` drops every object and unit not reachable from ``named/`` (an
object is reachable when a named record points at it; a unit is reachable
when a reachable ResultSet contains the (spec, seed) the unit caches),
compacting the surviving units into one segment, and
``verify`` re-hashes every stored object and sanity-checks every named
record and cached unit, reporting corruption instead of letting it feed a
comparison.

The same store drives the CLI: ``repro-run study figure1 --save demo``,
``repro-run ls``, ``repro-run show demo``, ``repro-run gc --dry-run``,
``repro-run verify``.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import time
import zlib
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import (Any, Dict, Iterable, Iterator, List, Optional, Set,
                    Tuple, Union)

from repro.analysis import jsonfmt
from repro.analysis.resultset import ResultSet

#: Schema tag written into every named record.
SCHEMA = "runstore/v1"

#: Environment override for the default store directory.
RUNS_DIR_ENV = "REPRO_RUNS_DIR"

#: Run names become file names; keep them portable.
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

#: Suffix of the append-only unit-cache segments under ``units/``.
SEGMENT_SUFFIX = ".seg"


def default_runs_dir() -> Path:
    """``$REPRO_RUNS_DIR`` when set, else ``./runs``."""
    # reprolint: ok RL005 (store location only; never feeds unit-job results)
    return Path(os.environ.get(RUNS_DIR_ENV) or "runs")


def is_run_name(text: str) -> bool:
    """Whether ``text`` is a valid saved-run name (vs a path or ``-``)."""
    return bool(_NAME_RE.match(text))


def _sha256(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _write_atomic(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via a temp file + rename: a kill mid-write
    leaves the old state or the complete new file, never a torn one."""
    temp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    temp.write_bytes(data)
    os.replace(temp, path)


def encode_record(record: Dict[str, object]) -> bytes:
    """One durable record: a newline, ``<crc32 of the JSON> <compact
    JSON>``, a newline.

    The leading newline makes a record self-synchronising: whatever
    precedes it (a torn tail, a damaged terminator) ends there, so one bad
    byte costs the record it sits in and no other.
    """
    body = jsonfmt.compact(record).encode("utf-8")
    return b"\n%08x %s\n" % (zlib.crc32(body), body)


#: One C scanner for every record body: ``(value, end index)`` of the JSON
#: value starting at an index, without ``json.loads``' encoding detection
#: and trailing-whitespace pass.
_SCAN = json.JSONDecoder().scan_once


def decode_records(data: bytes) -> Iterator[
        Tuple[int, Optional[Dict[str, Any]]]]:
    """``(line number, record)`` per non-blank line of ``data``; the record
    is ``None`` when the line is torn, fails its checksum or its body is
    not exactly one JSON object in strict UTF-8 (no BOM, no surrounding
    whitespace: :func:`encode_record` writes neither)."""
    for number, line in enumerate(data.split(b"\n"), start=1):
        if not line:
            continue
        body = line[9:]
        if line[:9] != b"%08x " % zlib.crc32(body):
            yield number, None
            continue
        try:
            text = body.decode("utf-8")
            record, end = _SCAN(text, 0)
        except (ValueError, StopIteration):
            record = None
        else:
            if end != len(text):
                record = None
        yield number, record if isinstance(record, dict) else None


def _unit(record: Optional[Dict[str, Any]]) -> Optional[
        Tuple[str, Dict[str, float]]]:
    """``(key, metrics)`` of one decoded segment record; ``None`` when it is
    missing or not the shape ``put_unit`` writes."""
    if record is None:
        return None
    try:
        return str(record["key"]), {name: float(value) for name, value
                                    in record["metrics"].items()}
    except (ValueError, KeyError, TypeError, AttributeError):
        return None


@dataclass
class RunRecord:
    """Metadata of one named, saved run."""

    name: str
    object_hash: str
    results: int
    labels: List[str]
    resultset_name: str
    saved_at: str
    #: Unit jobs in the saved ResultSet's failure manifest (0 = complete).
    failures: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": SCHEMA,
            "name": self.name,
            "object": self.object_hash,
            "results": self.results,
            "labels": list(self.labels),
            "resultset_name": self.resultset_name,
            "saved_at": self.saved_at,
            "failures": self.failures,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunRecord":
        return cls(
            name=str(data["name"]),
            object_hash=str(data["object"]),
            results=int(data.get("results", 0)),
            labels=[str(label) for label in data.get("labels", [])],
            resultset_name=str(data.get("resultset_name", "")),
            saved_at=str(data.get("saved_at", "")),
            failures=int(data.get("failures", 0)),
        )


@dataclass
class GcReport:
    """What one :meth:`RunStore.gc` pass removed (or would remove)."""

    dry_run: bool
    objects_removed: List[str] = field(default_factory=list)
    units_removed: List[str] = field(default_factory=list)
    objects_kept: int = 0
    units_kept: int = 0

    @property
    def removed(self) -> int:
        return len(self.objects_removed) + len(self.units_removed)

    def summary(self) -> str:
        verb = "would remove" if self.dry_run else "removed"
        return (f"{verb} {len(self.objects_removed)} object(s) and "
                f"{len(self.units_removed)} unit(s); kept "
                f"{self.objects_kept} object(s), {self.units_kept} unit(s)")


@dataclass
class StoreProblem:
    """One integrity problem found by :meth:`RunStore.verify`."""

    kind: str  # corrupt-object | missing-object | unreadable-record |
    #            unreadable-unit
    path: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.path} — {self.detail}"


class RunStore:
    """A directory of saved ResultSets plus the unit-job resume cache."""

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = Path(root) if root is not None else default_runs_dir()
        #: The segment this instance appends to (created by its first
        #: ``put_unit``).  A file object, so it is released on collection.
        self._segment: Optional[io.FileIO] = None
        #: ``key -> metrics`` over every record read so far, and how many
        #: bytes of each segment those records took.
        self._index: Dict[str, Dict[str, float]] = {}
        self._consumed: Dict[str, int] = {}

    def __del__(self) -> None:
        # There is no close(): a dropped store gives its segment back here.
        if getattr(self, "_segment", None) is not None:
            self._segment.close()

    # -- layout --------------------------------------------------------
    @property
    def objects_dir(self) -> Path:
        return self.root / "objects"

    @property
    def named_dir(self) -> Path:
        return self.root / "named"

    @property
    def units_dir(self) -> Path:
        return self.root / "units"

    def _named_path(self, name: str) -> Path:
        if not _NAME_RE.match(name):
            raise ValueError(
                f"invalid run name {name!r}; use letters, digits, '.', '_', '-'"
            )
        return self.named_dir / f"{name}.json"

    # -- named runs ----------------------------------------------------
    def save(self, results: ResultSet, name: str) -> RunRecord:
        """Persist a ResultSet under a name; returns the written record.

        The object file is content-addressed, so saving byte-identical
        results twice stores one object with two pointers.
        """
        path = self._named_path(name)
        payload = results.to_json()
        object_hash = _sha256(payload)
        self.objects_dir.mkdir(parents=True, exist_ok=True)
        # Rewritten even when present: a torn or damaged object of this
        # hash would otherwise outlive every deterministic re-run.
        _write_atomic(self.objects_dir / f"{object_hash}.json",
                      (payload + "\n").encode("utf-8"))
        record = RunRecord(
            name=name,
            object_hash=object_hash,
            results=len(results),
            labels=results.labels(),
            resultset_name=results.name,
            saved_at=datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
            failures=len(getattr(results, "failures", None) or ()),
        )
        self.named_dir.mkdir(parents=True, exist_ok=True)
        _write_atomic(path, (jsonfmt.dumps(record.to_dict())
                             + "\n").encode("utf-8"))
        return record

    def record(self, name: str) -> RunRecord:
        """The metadata record of a named run."""
        path = self._named_path(name)
        if not path.exists():
            known = ", ".join(record.name for record in self.list()) or "(none)"
            raise KeyError(
                f"no saved run {name!r} in {self.root}; saved runs: {known}"
            )
        return RunRecord.from_dict(json.loads(path.read_text(encoding="utf-8")))

    def load(self, name: str) -> ResultSet:
        """Reload a named ResultSet, verifying its content hash."""
        record = self.record(name)
        object_path = self.objects_dir / f"{record.object_hash}.json"
        if not object_path.exists():
            raise KeyError(
                f"run {name!r} points at missing object {record.object_hash}"
            )
        payload = object_path.read_text(encoding="utf-8").rstrip("\n")
        if _sha256(payload) != record.object_hash:
            raise ValueError(
                f"run {name!r}: object {record.object_hash} failed its "
                f"content-hash check (corrupted store?)"
            )
        return ResultSet.from_json(payload)

    def list(self) -> List[RunRecord]:
        """All named runs, sorted by name."""
        if not self.named_dir.is_dir():
            return []
        records = []
        for path in sorted(self.named_dir.glob("*.json")):
            records.append(RunRecord.from_dict(
                json.loads(path.read_text(encoding="utf-8"))))
        return records

    def delete(self, name: str) -> None:
        """Remove a named pointer (objects are kept: content-addressed)."""
        path = self._named_path(name)
        if not path.exists():
            raise KeyError(f"no saved run {name!r} in {self.root}")
        path.unlink()

    # -- unit-job resume cache -----------------------------------------
    def get_unit(self, key: str) -> Optional[Dict[str, float]]:
        """The cached metrics of a finished unit job, if present.

        A torn or damaged record (interrupted write, full disk, bit rot)
        is a miss — the job is simply recomputed — never an error.
        """
        self._refresh()
        metrics = self._index.get(key)
        return None if metrics is None else dict(metrics)

    def put_unit(self, key: str, metrics: Dict[str, float]) -> None:
        """Record one finished unit job for future resume.

        The record is with the kernel, in one ``write``, when this
        returns: a kill from then on cannot lose or tear it.
        """
        if self._segment is None:
            os.makedirs(self.units_dir, exist_ok=True)
            name = (f"{time.time_ns():016x}-{os.getpid()}-"
                    f"{os.urandom(4).hex()}{SEGMENT_SUFFIX}")
            # Exclusive create, unbuffered: this instance is the segment's
            # only writer, and there is no user-space buffer to lose.
            self._segment = open(  # noqa: SIM115 - lives with the instance
                os.path.join(self.units_dir, name), "xb", buffering=0)
        record = encode_record({"key": key, "metrics": metrics})
        if self._segment.write(record) != len(record):
            raise OSError(f"short write to {self._segment.name} (disk full?)")

    def completed_units(self, keys: Iterable[str]) -> Dict[str, Dict[str, float]]:
        """The subset of ``keys`` already cached, with their metrics."""
        self._refresh()
        index = self._index
        return {key: dict(index[key]) for key in keys if key in index}

    def _segments(self) -> List[str]:
        """Paths of the segments under ``units/``, oldest name first."""
        units = str(self.units_dir)
        try:
            names = os.listdir(units)
        except FileNotFoundError:
            return []
        return [os.path.join(units, name) for name in sorted(names)
                if name.endswith(SEGMENT_SUFFIX)]

    def _refresh(self) -> None:
        """Fold what any writer appended since the last look into the index.

        One ``listdir``, a ``stat`` per segment, and a read of only the
        bytes past what was already consumed.  Segment names start with
        their creation time, so of two records for one key the one in the
        later segment (``--no-resume``) wins.
        """
        for path in self._segments():
            consumed = self._consumed.get(path, 0)
            try:
                if os.stat(path).st_size <= consumed:
                    continue
                with open(path, "rb") as handle:
                    handle.seek(consumed)
                    data = handle.read()
            except OSError:  # collected under us by a gc: its units miss
                continue
            # A tail without its newline may still be in flight: left for
            # the next look rather than judged torn now.
            end = data.rfind(b"\n") + 1
            for _, record in decode_records(data[:end]):
                unit = _unit(record)
                if unit is not None:
                    self._index[unit[0]] = unit[1]
            self._consumed[path] = consumed + end

    # -- lifecycle: reachability, gc, verify ---------------------------
    def reachable(self) -> Tuple[Set[str], Set[str]]:
        """``(object hashes, unit keys)`` reachable from ``named/``.

        An object is reachable when a named record points at it; a unit is
        reachable when a reachable ResultSet contains the exact (spec,
        seed) the unit caches.  Unit keys are *recomputed* from the stored
        result specs (via the same :class:`~repro.scenarios.execution.
        UnitJob` derivation the execution layer uses).  Unreadable
        objects contribute no unit keys — run :meth:`verify` first if the
        store may be corrupt.
        """
        from repro.scenarios.execution import UnitJob
        from repro.scenarios.spec import ScenarioSpec

        object_hashes: Set[str] = set()
        unit_keys: Set[str] = set()
        for record in self.list():
            object_hashes.add(record.object_hash)
            object_path = self.objects_dir / f"{record.object_hash}.json"
            if not object_path.exists():
                continue
            try:
                results = ResultSet.from_json(
                    object_path.read_text(encoding="utf-8"))
            except (ValueError, KeyError, TypeError):
                continue
            for result in results:
                try:
                    spec = ScenarioSpec.from_dict(result.spec)
                except (ValueError, KeyError, TypeError):
                    continue
                unit_keys.update(job.key for job in UnitJob.for_seeds(
                    spec, [replicate.seed for replicate in result.replicates]))
        return object_hashes, unit_keys

    def gc(self, dry_run: bool = False) -> GcReport:
        """Drop objects and units unreachable from ``named/``.

        With ``dry_run`` nothing is deleted; the returned
        :class:`GcReport` lists what a real pass would remove.  The
        reachable units are compacted into one new segment (temp file +
        rename) and everything else under ``units/`` — the other
        segments, per-file entries of the earlier layout — is unlinked.
        A writer whose segment is collected under it keeps running; what
        it appends from then on is lost to the cache, never wrong.
        """
        reachable_objects, reachable_units = self.reachable()
        report = GcReport(dry_run=dry_run)
        if self.objects_dir.is_dir():
            for path in sorted(self.objects_dir.glob("*.json")):
                if path.stem in reachable_objects:
                    report.objects_kept += 1
                else:
                    report.objects_removed.append(path.stem)
                    if not dry_run:
                        path.unlink()
        if not self.units_dir.is_dir():
            return report
        self._index, self._consumed = {}, {}
        self._refresh()  # exactly what is on disk now
        kept = {key: self._index[key] for key in sorted(self._index)
                if key in reachable_units}
        files = sorted(os.listdir(self.units_dir))
        report.units_kept = len(kept)
        report.units_removed = sorted(set(self._index) - set(kept)) + [
            name[:-len(".json")] if name.endswith(".json") else name
            for name in files if not name.endswith(SEGMENT_SUFFIX)]
        if dry_run or not (report.units_removed or len(files) > 1):
            return report
        if kept:
            _write_atomic(
                self.units_dir / (f"{time.time_ns():016x}-{os.getpid()}-gc"
                                  f"{SEGMENT_SUFFIX}"),
                b"".join(encode_record({"key": key, "metrics": metrics})
                         for key, metrics in kept.items()))
        for name in files:
            os.unlink(self.units_dir / name)
        # This instance's own segment went with the rest.
        self._segment, self._index, self._consumed = None, {}, {}
        return report

    def verify(self) -> List[StoreProblem]:
        """Integrity-check the whole store; an empty list means healthy.

        Every object is re-hashed against its file name (the content
        address), every named record must parse and point at an existing
        object, and every line of every unit segment must carry its
        checksum and parse (``segment:line`` names each one that is torn,
        damaged or unparsable).
        """
        problems: List[StoreProblem] = []
        if self.objects_dir.is_dir():
            for path in sorted(self.objects_dir.glob("*.json")):
                payload = path.read_text(encoding="utf-8").rstrip("\n")
                if _sha256(payload) != path.stem:
                    problems.append(StoreProblem(
                        "corrupt-object", str(path),
                        "content does not hash to its file name"))
        if self.named_dir.is_dir():
            for path in sorted(self.named_dir.glob("*.json")):
                try:
                    record = RunRecord.from_dict(
                        json.loads(path.read_text(encoding="utf-8")))
                except (ValueError, KeyError, TypeError):
                    problems.append(StoreProblem(
                        "unreadable-record", str(path),
                        "named record does not parse"))
                    continue
                object_path = self.objects_dir / f"{record.object_hash}.json"
                if not object_path.exists():
                    problems.append(StoreProblem(
                        "missing-object", str(path),
                        f"points at missing object {record.object_hash}"))
        for path in self._segments():
            with open(path, "rb") as handle:
                data = handle.read()
            problems.extend(
                StoreProblem("unreadable-unit", f"{path}:{number}",
                             "unit record is torn, fails its checksum or "
                             "does not parse")
                for number, record in decode_records(data)
                if _unit(record) is None)
        return problems
