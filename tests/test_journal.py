"""The broker's write-ahead journal: records, replay, prefix consistency.

The durability argument rests on one property: appends are fsynced
checksummed records, so a crash leaves the acknowledged history (possibly
with a torn last record), and **any prefix of a valid journal replays to
a consistent queue**.  The property-style tests here record a real queue
journey — submit, lease, charge, complete, fail — then check every prefix
of the resulting journal: it folds to an internally consistent state, and
a fresh :class:`BrokerQueue` recovered from it can be driven to
completion and retired (which garbage-collects the journal file).  Byte-
level damage at every offset is ``tests/test_segment_hostile.py``'s.
"""

import json
import os
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import jsonfmt
from repro.analysis.runstore import (SEGMENT_SUFFIX, decode_records,
                                     encode_record)
from repro.distributed import BrokerQueue, JournalDir
from repro.distributed.journal import (
    SCHEMA_VERSION,
    RunJournal,
    replay_records,
    run_file_name,
)
from repro.scenarios import JobPolicy


def _job(key, seed=1, scenario="s"):
    return {"key": key, "spec": {"name": scenario}, "seed": seed,
            "scenario": scenario}


def _submit_record(run_id, keys, order=0):
    return {"v": SCHEMA_VERSION, "type": "submit", "run": run_id,
            "order": order, "policy": {},
            "jobs": [_job(key) for key in keys]}


# ----------------------------------------------------------------------
# File naming
# ----------------------------------------------------------------------
class TestRunFileName:
    def test_hostile_run_ids_are_filesystem_safe(self):
        for run_id in ("../../etc/passwd", "a/b/c", "run id with spaces",
                       "ünïcode", "", "." * 10):
            name = run_file_name(run_id)
            assert name.endswith(SEGMENT_SUFFIX)
            assert "/" not in name and "\\" not in name
            stem = name[:-len(SEGMENT_SUFFIX)]
            assert stem == stem.strip("._-")
            assert all(c.isalnum() or c in "._-" for c in stem)

    def test_colliding_sanitised_prefixes_stay_distinct(self):
        # Both sanitise to the prefix "run_a"; the digest disambiguates.
        assert run_file_name("run/a") != run_file_name("run_a")

    def test_stable_and_greppable(self):
        assert run_file_name("study-figure1-1") == run_file_name(
            "study-figure1-1")
        assert run_file_name("study-figure1-1").startswith("study-figure1-1-")


# ----------------------------------------------------------------------
# Append / decode
# ----------------------------------------------------------------------
def _records_in(path):
    return [record for _, record in decode_records(path.read_bytes())]


class TestRunJournal:
    def test_append_close_reopen_appends(self, tmp_path):
        journal_dir = JournalDir(tmp_path / "journal")
        journal = journal_dir.open_run("r")
        journal.append(_submit_record("r", ["a"]))
        journal.append({"type": "done", "key": "a", "metrics": {"m": 1.0}})
        journal.close()
        reopened = journal_dir.open_run("r")
        reopened.append({"type": "cancel"})
        reopened.close()
        records = _records_in(journal_dir.path_for("r"))
        assert [r["type"] for r in records] == ["submit", "done", "cancel"]
        assert records[1]["metrics"] == {"m": 1.0}

    def test_each_append_is_one_encoded_record(self, tmp_path):
        journal = RunJournal(tmp_path / f"r{SEGMENT_SUFFIX}")
        records = [_submit_record("r", ["a"]), {"type": "cancel"}]
        for record in records:
            journal.append(record)
        journal.close()
        assert journal.path.read_bytes() == b"".join(
            encode_record(record) for record in records)

    def test_append_after_close_raises(self, tmp_path):
        journal = RunJournal(tmp_path / f"r{SEGMENT_SUFFIX}")
        journal.close()
        with pytest.raises(ValueError):
            journal.append({"type": "cancel"})

    def test_discard_missing_file_is_fine(self, tmp_path):
        journal_dir = JournalDir(tmp_path / "journal")
        journal_dir.discard(journal_dir.path_for("never-existed"))

    def test_one_fsync_per_settled_job_plus_the_submit(
            self, tmp_path, monkeypatch):
        fsyncs = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (fsyncs.append(fd),
                                                     real_fsync(fd)))
        queue = BrokerQueue(journal=JournalDir(tmp_path / "journal"))
        queue.submit("r", [_job(f"k{index}") for index in range(10)],
                     JobPolicy())
        assert len(fsyncs) == 1
        while True:
            grant = queue.lease("w", wait_s=0.0)
            if grant["type"] != "job":
                break
            queue.complete(grant["lease"], {"m": 1.0})
        assert queue.stats()["runs"]["r"]["completed"] == 10
        assert len(fsyncs) == 1 + 10


class TestRecordCodec:
    def test_unit_records_keep_their_bytes(self):
        # The unit-cache segment layout, byte for byte: segments written
        # before the codec was shared with the journal still read back.
        assert encode_record({"key": "00ab-s3",
                              "metrics": {"m": 1.5, "a": 0.1}}) == (
            b'\ne056653a {"key":"00ab-s3","metrics":{"a":0.1,"m":1.5}}\n')

    def test_torn_tail_costs_only_the_last_record(self):
        good = [{"type": "submit", "run": "r"}, {"type": "done", "key": "a"}]
        data = b"".join(encode_record(record) for record in good)
        torn = encode_record({"type": "done", "key": "b", "metrics": {}})
        decoded = [record for _, record in
                   decode_records(data + torn[:-8])]
        assert decoded == good + [None]

    def test_non_dict_body_is_a_bad_record(self):
        body = b"[1, 2, 3]"
        data = (encode_record({"type": "submit", "run": "r"})
                + b"\n%08x %s\n" % (zlib.crc32(body), body)
                + encode_record({"type": "done", "key": "a"}))
        decoded = [record for _, record in decode_records(data)]
        assert decoded == [{"type": "submit", "run": "r"}, None,
                           {"type": "done", "key": "a"}]

    def test_blank_lines_are_skipped_and_numbered(self):
        data = b"\n\n" + encode_record({"type": "submit", "run": "r"}) + b"\n"
        assert list(decode_records(data)) == [
            (4, {"type": "submit", "run": "r"})]


#: JSON values without NaN (which equals nothing, itself included).
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(),
              st.floats(allow_nan=False), st.text(max_size=8)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4)),
    max_leaves=20)
RECORDS = st.dictionaries(st.text(max_size=8), JSON_VALUES, max_size=5)
_JSON_WHITESPACE = " \t\r\n"


def _line(body: bytes) -> bytes:
    """One record line around ``body``, with a checksum that matches it."""
    return b"%08x %s" % (zlib.crc32(body), body)


class TestRecordDecoder:
    """A body is one JSON object in strict UTF-8, as ``encode_record``
    writes it; any other body is a damaged record."""

    @settings(max_examples=200, deadline=None)
    @given(RECORDS)
    def test_every_encoded_record_round_trips(self, record):
        assert list(decode_records(encode_record(record))) == [(2, record)]

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        RECORDS.map(jsonfmt.compact),
        JSON_VALUES.map(json.dumps),
        st.text(),
        st.binary().map(lambda raw: raw.decode("utf-8", "replace")),
    ))
    def test_a_strict_utf8_body_decodes_as_json_loads(self, text):
        if "\n" in text or text[:1] == "\ufeff" or (
                text and (text[0] in _JSON_WHITESPACE
                          or text[-1] in _JSON_WHITESPACE)):
            return
        try:
            expected = json.loads(text)
        except ValueError:
            expected = None
        if not isinstance(expected, dict):
            expected = None
        assert list(decode_records(_line(text.encode("utf-8")))) == [
            (1, expected)]

    @settings(max_examples=100, deadline=None)
    @given(RECORDS, st.sampled_from(_JSON_WHITESPACE))
    def test_bom_utf16_and_padded_bodies_are_damaged(self, record, space):
        text = jsonfmt.compact(record)
        body = text.encode("utf-8")
        pad = space.encode()
        for variant in (b"\xef\xbb\xbf" + body, text.encode("utf-16"),
                        text.encode("utf-16-le"), pad + body, body + pad):
            assert json.loads(variant) == record     # what json.loads allows
            assert [decoded for _, decoded in
                    decode_records(_line(variant))] in ([None], [None, None])

    def test_invalid_utf8_is_damaged(self):
        body = b'{"key":"\xed\xa0\x80"}'              # an encoded surrogate
        assert json.loads(body) == {"key": "\ud800"}
        assert list(decode_records(_line(body))) == [(1, None)]


# ----------------------------------------------------------------------
# Folding records into run state
# ----------------------------------------------------------------------
class TestReplayRecords:
    def test_full_history_folds(self):
        state = replay_records([
            _submit_record("r", ["a", "b"], order=3),
            {"type": "charge", "key": "a", "attempts": 1},
            {"type": "done", "key": "a", "metrics": {"m": 0.5},
             "cached": True},  # older journals carry it; replay ignores it
            {"type": "failed", "key": "b",
             "failure": {"key": "b", "kind": "exception"}},
        ])
        assert state.run_id == "r" and state.order == 3
        assert state.results == {"a": {"m": 0.5}}
        assert state.charges == {"a": 1}
        assert state.failures["b"]["kind"] == "exception"
        assert not state.cancelled

    def test_without_a_submit_there_is_no_state(self):
        assert replay_records([]) is None
        assert replay_records([{"type": "done", "key": "a"}]) is None

    def test_second_submit_stops_the_fold(self):
        state = replay_records([
            _submit_record("r", ["a"]),
            {"type": "done", "key": "a", "metrics": {}},
            _submit_record("r", ["b"]),
            {"type": "done", "key": "b", "metrics": {}},
        ])
        assert set(state.results) == {"a"}

    def test_charges_only_grow(self):
        state = replay_records([
            _submit_record("r", ["a"]),
            {"type": "charge", "key": "a", "attempts": 2},
            {"type": "charge", "key": "a", "attempts": 1},
        ])
        assert state.charges == {"a": 2}

    def test_cancel_flag(self):
        state = replay_records([_submit_record("r", ["a"]),
                                {"type": "cancel"}])
        assert state.cancelled


class TestJournalDir:
    def test_replay_orders_runs_by_submission(self, tmp_path):
        journal_dir = JournalDir(tmp_path / "journal")
        for run_id, order in (("zz", 0), ("aa", 2), ("mm", 1)):
            journal = journal_dir.open_run(run_id)
            journal.append(_submit_record(run_id, ["a"], order=order))
            journal.close()
        runs, dead = journal_dir.replay()
        assert [s.run_id for s in runs] == ["zz", "mm", "aa"]
        assert dead == []

    def test_empty_directory_replays_to_nothing(self, tmp_path):
        assert JournalDir(tmp_path / "missing").replay() == ([], [])

    def test_files_of_the_old_format_are_not_replayed(self, tmp_path):
        root = tmp_path / "journal"
        root.mkdir()
        (root / "r-0123456789ab.jsonl").write_text(
            '{"type":"submit","run":"r","order":0,"jobs":[]}\n',
            encoding="utf-8")
        assert JournalDir(root).replay() == ([], [])


# ----------------------------------------------------------------------
# The prefix-consistency property
# ----------------------------------------------------------------------
def _record_history(tmp_path):
    """Drive a real journaled queue through every record type.

    a fails once then completes, b completes, c exhausts its
    retry budget — the journal ends up with submit, charge, done and
    failed records in genuine interleaving.  Returns the decoded records.
    """
    journal_dir = JournalDir(tmp_path / "journal")
    queue = BrokerQueue(journal=journal_dir)
    policy = JobPolicy(max_retries=2, backoff_base_s=0.0)
    queue.submit("history", [_job("a"), _job("b"), _job("c")], policy)
    fail_budget = {"a": 1, "c": 3}  # scripted failures per key
    while queue.stats()["runs"]["history"]["open"]:
        grant = queue.lease("w", wait_s=2.0)
        key = grant["key"]
        if fail_budget.get(key, 0) > 0:
            fail_budget[key] -= 1
            queue.fail(grant["lease"], "exception", "boom")
        else:
            queue.complete(grant["lease"], {"m": 0.5})
    # a retried once then completed, b completed, c exhausted
    # its three attempts into the manifest.
    stats = queue.stats()["runs"]["history"]
    assert stats["completed"] == 2 and stats["failed"] == 1
    records = _records_in(journal_dir.path_for("history"))
    assert None not in records
    return records


def _write_journal(root, records):
    root.mkdir()
    (root / run_file_name("history")).write_bytes(
        b"".join(encode_record(record) for record in records))
    return JournalDir(root)


def _assert_consistent(state):
    submitted = {str(job["key"]) for job in state.jobs}
    assert submitted == {"a", "b", "c"}
    # Settled keys are submitted keys, exactly once each.
    assert set(state.results) <= submitted
    assert set(state.failures) <= submitted
    assert not set(state.results) & set(state.failures)
    assert set(state.charges) <= submitted
    assert all(n >= 1 for n in state.charges.values())


class TestPrefixReplayProperty:
    def test_every_prefix_folds_to_a_consistent_state(self, tmp_path):
        records = _record_history(tmp_path)
        # All record types are actually present.
        assert {r["type"] for r in records} == {
            "submit", "charge", "done", "failed"}
        assert replay_records([]) is None
        for cut in range(1, len(records) + 1):
            _assert_consistent(replay_records(records[:cut]))

    def test_every_gap_folds_to_a_consistent_state(self, tmp_path):
        """A damaged record costs that record only: the journal without
        it still folds to a consistent queue."""
        records = _record_history(tmp_path)
        for drop in range(1, len(records)):
            _assert_consistent(
                replay_records(records[:drop] + records[drop + 1:]))

    def test_every_prefix_recovers_to_a_workable_queue(self, tmp_path):
        records = _record_history(tmp_path)
        for cut in range(1, len(records) + 1):
            journal_dir = _write_journal(tmp_path / f"cut-{cut}",
                                         records[:cut])
            queue = BrokerQueue(journal=journal_dir)
            assert queue.recover() == ["history"]
            stats = queue.stats()["runs"]["history"]
            assert (stats["open"] + stats["completed"]
                    + stats["failed"]) == 3
            # Whatever was in flight at the cut can be driven home...
            while True:
                grant = queue.lease("w", wait_s=0.0)
                if grant["type"] != "job":
                    break
                queue.complete(grant["lease"], {"m": 1.0})
            # ...and the finished run retires, GC-ing its journal file.
            assert queue.retire("history") is True
            assert not queue.has_run("history")
            assert not journal_dir.path_for("history").exists()

    def test_torn_tail_still_recovers(self, tmp_path):
        journal_dir = _write_journal(tmp_path / "torn",
                                     _record_history(tmp_path))
        torn = encode_record({"type": "done", "key": "c", "metrics": {}})
        with open(journal_dir.path_for("history"), "ab") as handle:
            handle.write(torn[:len(torn) // 2])
        queue = BrokerQueue(journal=journal_dir)
        assert queue.recover() == ["history"]
        stats = queue.stats()["runs"]["history"]
        # The torn record is ignored: c keeps its journaled failure.
        assert stats["completed"] == 2 and stats["failed"] == 1
        assert stats["open"] == 0 and stats["done"]
