"""Both durable logs under hostile conditions: unit segments and journal.

The unit cache's ``units/`` segments and the broker's write-ahead journal
share one record format (``runstore.encode_record``) and one torn-data
rule: a torn or damaged record costs itself and no other.  For the unit
cache that means *a miss, never an error, never a wrong hit*; for the
journal, that replay equals the fold of exactly the undamaged records.
Both logs are recorded, cut at every byte offset and damaged at every
byte; the unit cache is also written by real processes at once and by a
real process SIGKILLed in the middle of a grid.  ``make chaos`` runs this
file next to the worker-kill run.
"""

import multiprocessing
import os
import resource
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.analysis.runstore import RunStore, decode_records, encode_record
from repro.distributed import BrokerQueue, JournalDir
from repro.distributed.journal import replay_records, run_file_name
from repro.scenarios import JobPolicy

RECORDS = 20


def metrics_of(index: int) -> dict:
    return {"index": float(index), "third": index / 3.0}


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """``(bytes of a 20-record segment, [(key, start, end)] per record)``."""
    store = RunStore(tmp_path_factory.mktemp("recorded"))
    spans, keys = [], [f"{index:016x}-s{index}" for index in range(RECORDS)]
    for index, key in enumerate(keys):
        store.put_unit(key, metrics_of(index))
        (segment,) = store.units_dir.iterdir()
        start = spans[-1][2] if spans else 0
        spans.append((key, start, segment.stat().st_size))
    return segment.read_bytes(), spans


def store_holding(root, data: bytes) -> RunStore:
    """A fresh store over ``root`` whose one segment holds ``data``."""
    units = root / "units"
    units.mkdir(exist_ok=True)
    (units / "0000000000000001-1-recorded.seg").write_bytes(data)
    return RunStore(root)


def test_cut_at_every_byte_offset_keeps_exactly_the_whole_records(
        recorded, tmp_path):
    data, spans = recorded
    keys = [key for key, _, _ in spans]
    for cut in range(len(data) + 1):
        store = store_holding(tmp_path, data[:cut])
        whole = {key: metrics_of(index)
                 for index, (key, _, end) in enumerate(spans) if end <= cut}
        assert store.completed_units(keys) == whole, cut
        # A cut inside a line leaves it torn, and verify names it (a line
        # short of nothing but its newline still carries its checksum).
        torn = (cut > 0 and data[cut - 1:cut] != b"\n"
                and cut + 1 not in [end for _, _, end in spans])
        assert len(store.verify()) == int(torn), cut


@pytest.mark.parametrize("mask", [0x01, 0x20, 0xFF])
def test_any_flipped_byte_costs_its_own_record_and_no_other(
        recorded, tmp_path, mask):
    data, spans = recorded
    spans = spans[:8]  # every byte of eight records, at three masks
    data = data[:spans[-1][2]]
    keys = [key for key, _, _ in spans]
    for victim, (key, start, end) in enumerate(spans):
        for offset in range(start, end):
            damaged = bytearray(data)
            damaged[offset] ^= mask
            store = store_holding(tmp_path, bytes(damaged))
            survivors = {other: metrics_of(index)
                         for index, (other, _, _) in enumerate(spans)
                         if index != victim}
            assert store.completed_units(keys) == survivors, (key, offset)
            problems = store.verify()
            assert problems, (key, offset)
            assert {problem.kind for problem in problems} == {
                "unreadable-unit"}
            if damaged.count(b"\n") == data.count(b"\n"):
                # Line structure intact: the record sits on line 2i + 2.
                (problem,) = problems
                assert problem.path.endswith(f".seg:{2 * victim + 2}")


@pytest.fixture(scope="module")
def journaled(tmp_path_factory):
    """``(bytes of a run's journal, [(record, start, end)] per record)``.

    a completes, b is charged once then completes, c is charged once then
    fails into the manifest.
    """
    journals = JournalDir(tmp_path_factory.mktemp("journaled"))
    queue = BrokerQueue(journal=journals)
    queue.submit("r", [{"key": key, "spec": {"name": "s"}, "seed": 1,
                        "scenario": "s"} for key in "abc"],
                 JobPolicy(max_retries=1, backoff_base_s=0.0))
    failures = {"b": 1, "c": 2}
    while queue.stats()["runs"]["r"]["open"]:
        grant = queue.lease("w", wait_s=2.0)
        if failures.get(grant["key"], 0) > 0:
            failures[grant["key"]] -= 1
            queue.fail(grant["lease"], "exception", "boom")
        else:
            queue.complete(grant["lease"], metrics_of(ord(grant["key"])))
    data = journals.path_for("r").read_bytes()
    spans, start = [], 0
    for _, record in decode_records(data):
        end = start + len(encode_record(record))
        spans.append((record, start, end))
        start = end
    assert start == len(data)
    assert [(record["type"], record.get("key")) for record, _, _ in spans] \
        == [("submit", None), ("done", "a"), ("charge", "b"),
            ("charge", "c"), ("done", "b"), ("failed", "c")]
    return data, spans


def journal_holding(root, data: bytes) -> JournalDir:
    """A journal directory over ``root`` whose one run file holds ``data``."""
    (root / run_file_name("r")).write_bytes(data)
    return JournalDir(root)


def test_journal_cut_at_every_byte_offset_replays_exactly_the_whole_records(
        journaled, tmp_path):
    data, spans = journaled
    path = tmp_path / run_file_name("r")
    for cut in range(len(data) + 1):
        # A record short of nothing but its newline still carries its
        # checksum: the journal has no in-flight tail to wait for.
        expected = replay_records(
            [record for record, _, end in spans if end - 1 <= cut])
        runs, dead = journal_holding(tmp_path, data[:cut]).replay()
        assert runs == ([] if expected is None else [expected]), cut
        assert dead == ([path] if expected is None else []), cut


@pytest.mark.parametrize("mask", [0x01, 0x20, 0xFF])
def test_journal_flipped_byte_costs_its_own_record_and_no_other(
        journaled, tmp_path, mask):
    data, spans = journaled
    path = tmp_path / run_file_name("r")
    for victim, (_, start, end) in enumerate(spans):
        expected = replay_records(
            [record for index, (record, _, _) in enumerate(spans)
             if index != victim])
        for offset in range(start, end):
            damaged = bytearray(data)
            damaged[offset] ^= mask
            runs, dead = journal_holding(tmp_path, bytes(damaged)).replay()
            assert runs == ([] if expected is None else [expected]), offset
            assert dead == ([path] if expected is None else []), offset


def test_journal_damaged_done_leaves_the_later_settlements(
        journaled, tmp_path):
    data, spans = journaled
    _, start, end = spans[1]  # a's done record
    damaged = bytearray(data)
    damaged[(start + end) // 2] ^= 0x01
    queue = BrokerQueue(journal=journal_holding(tmp_path, bytes(damaged)))
    assert queue.recover() == ["r"]
    stats = queue.stats()["runs"]["r"]
    # b and c stay settled; only a runs again.
    assert (stats["completed"], stats["failed"], stats["open"]) == (1, 1, 1)
    grant = queue.lease("w", wait_s=0.0)
    assert grant["key"] == "a"
    assert queue.lease("w", wait_s=0.0)["type"] == "idle"


def _write_units(root: str, writer: int, count: int, barrier) -> None:
    store = RunStore(root)
    barrier.wait(timeout=30)
    for index in range(count):
        store.put_unit(f"w{writer}-s{index}", metrics_of(index))


def test_two_processes_write_one_store_and_a_third_reads_it_all(tmp_path):
    count = 200
    expected = {f"w{writer}-s{index}": metrics_of(index)
                for writer in (0, 1) for index in range(count)}
    context = multiprocessing.get_context("spawn")
    barrier = context.Barrier(2)
    writers = [context.Process(target=_write_units,
                               args=(str(tmp_path), writer, count, barrier))
               for writer in (0, 1)]
    for process in writers:
        process.start()
    # A long-lived reader polls while they write: whatever it sees must be
    # right, and must only ever grow.
    reader, seen = RunStore(tmp_path), 0
    while any(process.is_alive() for process in writers):
        hits = reader.completed_units(expected)
        assert all(expected[key] == metrics for key, metrics in hits.items())
        assert len(hits) >= seen
        seen = len(hits)
    for process in writers:
        process.join(timeout=30)
        assert process.exitcode == 0
    assert reader.completed_units(expected) == expected
    fresh = RunStore(tmp_path)
    assert fresh.completed_units(expected) == expected
    assert fresh.verify() == []  # no interleaved or partial line anywhere
    assert len(list(fresh.units_dir.iterdir())) == 2  # one segment each


GRID = textwrap.dedent("""
    import sys, time
    from repro.analysis.runstore import RunStore
    from repro.scenarios import compile_sweep, execute_plan

    plan = compile_sweep("pos-slashing", replicates=8, overrides={
        "architecture.rounds": 50,
        "sweeps": {"architecture.multi_vote_fraction":
                   [index / 250 for index in range(250)]}})
    print(len(plan.jobs), flush=True)

    def progress(done, total, job):
        if job is not None:
            print(job.key, flush=True)

    execute_plan(plan, store=RunStore(sys.argv[1]), progress=progress)
    time.sleep(60)  # never reached: the parent kills us mid-grid
""")


def test_sigkill_mid_grid_loses_no_unit_it_had_reported(tmp_path):
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    child = subprocess.Popen([sys.executable, "-c", GRID, str(tmp_path)],
                             stdout=subprocess.PIPE, env=env)
    try:
        total = int(child.stdout.readline())
        reported = [child.stdout.readline() for _ in range(30)]
        child.send_signal(signal.SIGKILL)
        reported += child.stdout.read().split(b"\n")[:-1]  # whole lines only
        assert child.wait(timeout=30) == -signal.SIGKILL
    finally:
        child.kill()
        child.stdout.close()
    keys = [line.strip().decode() for line in reported]
    assert 30 <= len(keys) < total  # it died with most of the grid to go
    assert set(RunStore(tmp_path).completed_units(keys)) == set(keys)


def test_long_lived_instance_sees_what_others_write_later(tmp_path):
    old = RunStore(tmp_path)
    assert old.get_unit("late-s1") is None
    RunStore(tmp_path).put_unit("late-s1", {"x": 1.0})
    assert old.get_unit("late-s1") == {"x": 1.0}
    newer = RunStore(tmp_path)
    newer.put_unit("late-s1", {"x": 2.0})  # --no-resume: the later one wins
    newer.put_unit("later-s1", {"x": 3.0})
    assert old.completed_units(["late-s1", "later-s1"]) == {
        "late-s1": {"x": 2.0}, "later-s1": {"x": 3.0}}
    assert RunStore(tmp_path).get_unit("late-s1") == {"x": 2.0}


def test_dropped_stores_release_their_segments(tmp_path):
    """``RunStore`` has no ``close()``: 1 100 stores written once and
    dropped must not run one process out of descriptors."""
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    resource.setrlimit(resource.RLIMIT_NOFILE, (min(soft, 256), hard))
    try:
        for index in range(1100):
            RunStore(tmp_path).put_unit(f"unit-s{index}", {"x": float(index)})
    finally:
        resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
    keys = [f"unit-s{index}" for index in range(1100)]
    assert len(RunStore(tmp_path).completed_units(keys)) == 1100
