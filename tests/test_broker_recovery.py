"""Broker durability and run lifecycle: recovery, re-attach, retirement.

Three layers, mirroring the rest of the distributed suite:

- **queue level** (no sockets): journal recovery semantics — a lease in
  flight at the crash comes back pending *uncharged*, consumed retry
  budget survives, settled results replay on re-attach; plus the run
  lifecycle fixes (retire-after-done, cancel-drain accounting, the
  attach-epoch guard that stops a zombie stream cancelling a re-attached
  run, orphan sweeping).
- **server level** (sockets, in-process): an idle submit stream ticks
  instead of dying, a client that reconnects and re-submits the same run
  id re-attaches and is replayed every settled event, a worker whose
  lease was reaped learns it from the heartbeat-ack and abandons the
  attempt.
- **end to end**: a real ``repro-broker`` subprocess is SIGKILLed
  mid-run and restarted on the same journal; the client rides it out and
  the assembled study is byte-identical to the committed figure1 golden,
  with the retired run's journal garbage-collected.  A soak loop pushes
  twenty runs through one journaled broker and checks nothing leaks.
"""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.analysis.runstore import SEGMENT_SUFFIX, RunStore
from repro.distributed import (
    BrokerQueue,
    BrokerServer,
    DistributedBackend,
    FrameError,
    JournalDir,
    Worker,
)
from repro.distributed.broker import policy_to_dict
from repro.distributed.protocol import connect, recv_frame, send_frame
from repro.scenarios import FaultPlan, FaultSpec, JobPolicy, compile_study
from repro.scenarios.goldens import STUDY_TRIMS

from fault_fixtures import installed
from test_execution import FIGURE1_TRIMS

GOLDEN_FIGURE1 = Path(__file__).parent / "goldens" / "study-figure1.json"


def _job(key, seed=1, scenario="s"):
    return {"key": key, "spec": {"name": scenario}, "seed": seed,
            "scenario": scenario}


def _wire(job):
    return {"key": job.key, "spec": job.spec.to_dict(), "seed": job.seed,
            "scenario": job.spec.name}


def _drain_until(events, kind):
    for _ in range(100):
        event = events.get(timeout=10.0)
        if event["type"] == kind:
            return event
    raise AssertionError(f"no {kind!r} event arrived")


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return predicate()


# ----------------------------------------------------------------------
# Queue-level journal recovery
# ----------------------------------------------------------------------
class TestQueueRecovery:
    def test_lost_lease_requeued_uncharged_and_results_replayed(
            self, tmp_path):
        journal_dir = JournalDir(tmp_path / "journal")
        crashed = BrokerQueue(journal=journal_dir)
        crashed.submit("r", [_job("a"), _job("b")],
                       JobPolicy(max_retries=0))
        first = crashed.lease("w")
        assert first["key"] == "a"
        crashed.complete(first["lease"], {"m": 0.5})
        assert crashed.lease("w")["key"] == "b"  # in flight at the crash

        queue = BrokerQueue(journal=journal_dir)  # the restarted broker
        assert queue.recover() == ["r"]
        grant = queue.lease("w2", wait_s=2.0)
        # Same attempt number even under a zero-retry policy: the lost
        # lease never charged the budget.
        assert grant["key"] == "b" and grant["attempt"] == 1
        # The settled job is not re-dispatched...
        assert queue.lease("w2", wait_s=0.0)["type"] == "idle"
        # ...its journaled metrics replay on re-attach instead.
        events = queue.attach("r")
        replayed = events.get(timeout=2.0)
        assert replayed["type"] == "job-done" and replayed["key"] == "a"
        assert replayed["metrics"] == {"m": 0.5}
        queue.complete(grant["lease"], {"m": 1.5})
        assert _drain_until(events, "run-done")["completed"] == 2

    def test_consumed_retry_budget_survives_the_crash(self, tmp_path):
        journal_dir = JournalDir(tmp_path / "journal")
        crashed = BrokerQueue(journal=journal_dir)
        crashed.submit("r", [_job("a")],
                       JobPolicy(max_retries=2, backoff_base_s=0.0))
        for _ in range(2):
            grant = crashed.lease("w", wait_s=2.0)
            crashed.fail(grant["lease"], "exception", "boom")

        queue = BrokerQueue(journal=journal_dir)
        assert queue.recover() == ["r"]
        grant = queue.lease("w", wait_s=2.0)
        assert grant["attempt"] == 3  # two charges replayed
        queue.fail(grant["lease"], "exception", "boom")
        events = queue.attach("r")
        failed = _drain_until(events, "job-failed")
        assert failed["failure"]["attempts"] == 3

    def test_cancelled_journal_is_discarded_on_recover(self, tmp_path):
        journal_dir = JournalDir(tmp_path / "journal")
        journal = journal_dir.open_run("dead")
        journal.append({"type": "submit", "run": "dead", "order": 0,
                        "policy": {}, "jobs": [_job("a")]})
        journal.append({"type": "cancel"})
        journal.close()
        queue = BrokerQueue(journal=journal_dir)
        assert queue.recover() == []
        assert not journal_dir.path_for("dead").exists()

    def test_journal_without_a_run_is_reported_and_deleted(
            self, tmp_path, capsys):
        journal_dir = JournalDir(tmp_path / "journal")
        journal = journal_dir.open_run("torn")
        journal.append({"type": "submit", "run": "torn", "order": 0,
                        "policy": {}, "jobs": [_job("a")]})
        journal.append({"type": "done", "key": "a", "metrics": {}})
        journal.close()
        torn = journal_dir.path_for("torn")
        data = torn.read_bytes()
        torn.write_bytes(data[:20] + data[21:])  # the submit loses a byte
        empty = journal_dir.path_for("empty")
        empty.write_bytes(b"")
        queue = BrokerQueue(journal=journal_dir)
        assert queue.recover() == []
        assert not torn.exists() and not empty.exists()
        err = capsys.readouterr().err
        for path in (torn, empty):
            assert f"broker: journal {path} holds no run" in err

    def test_recover_without_a_journal_is_a_noop(self):
        assert BrokerQueue().recover() == []

    def test_run_order_resumes_past_recovered_runs(self, tmp_path):
        journal_dir = JournalDir(tmp_path / "journal")
        crashed = BrokerQueue(journal=journal_dir)
        crashed.submit("old", [_job("a")], JobPolicy())
        queue = BrokerQueue(journal=journal_dir)
        queue.recover()
        queue.submit("new", [_job("b")], JobPolicy())
        # The recovered run keeps its dispatch priority over the new one.
        assert queue.lease("w")["key"] == "a"
        assert queue.lease("w")["key"] == "b"


# ----------------------------------------------------------------------
# Run lifecycle (the satellite fixes)
# ----------------------------------------------------------------------
class TestRunLifecycle:
    def test_retire_only_after_run_done(self, tmp_path):
        journal_dir = JournalDir(tmp_path / "journal")
        queue = BrokerQueue(journal=journal_dir)
        queue.submit("r", [_job("a")], JobPolicy())
        assert queue.retire("r") is False  # still open: refuse
        assert journal_dir.path_for("r").exists()
        grant = queue.lease("w")
        queue.complete(grant["lease"], {"m": 1.0})
        assert queue.retire("r") is True
        assert not queue.has_run("r")  # the _runs/_run_order leak fix
        assert not journal_dir.path_for("r").exists()
        assert queue.retire("r") is False  # idempotent on unknown runs

    def test_cancel_drains_with_full_accounting(self):
        queue = BrokerQueue()
        events = queue.submit("r", [_job("a"), _job("b"), _job("c")],
                              JobPolicy())
        leased = queue.lease("w")  # a is in flight when the run dies
        queue.cancel("r")
        done = _drain_until(events, "run-done")
        # Every drained job is accounted: nothing hangs at open_jobs > 0.
        assert done["completed"] == 0 and done["failed"] == 3
        assert not queue.has_run("r")  # cancelled + drained => retired
        # The next lease flushes the dead heap entries and finds nothing.
        assert queue.lease("w", wait_s=0.0)["type"] == "idle"
        assert queue.stats()["queued"] == 0
        # The revoked lease's late report is dropped, not resurrected.
        assert queue.complete(leased["lease"], {"m": 1.0}) is False

    def test_stale_epoch_cannot_cancel_a_reattached_run(self):
        queue = BrokerQueue()
        queue.submit("r", [_job("a")], JobPolicy())
        stale = queue.stream_epoch("r")
        events = queue.attach("r")  # the client came back: epoch bumps
        queue.cancel("r", epoch=stale)  # zombie stream: ignored
        assert queue.has_run("r")
        grant = queue.lease("w")
        queue.complete(grant["lease"], {"m": 1.0})
        assert _drain_until(events, "run-done")["completed"] == 1

    def test_attach_rejects_a_different_job_set(self):
        queue = BrokerQueue()
        queue.submit("r", [_job("a")], JobPolicy())
        with pytest.raises(ValueError, match="different job set"):
            queue.attach("r", [_job("other")])

    def test_sweep_orphans_cancels_unattached_runs(self):
        queue = BrokerQueue(orphan_ttl=0.05)
        queue.submit("r", [_job("a")], JobPolicy())
        queue.detach("r", queue.stream_epoch("r"))
        assert queue.sweep_orphans(now=time.monotonic() + 1.0) == 1
        assert not queue.has_run("r")

    def test_attached_runs_are_never_swept(self):
        queue = BrokerQueue(orphan_ttl=0.05)
        queue.submit("r", [_job("a")], JobPolicy())
        assert queue.sweep_orphans(now=time.monotonic() + 1.0) == 0
        assert queue.has_run("r")


# ----------------------------------------------------------------------
# Server-level streams and the heartbeat-ack protocol
# ----------------------------------------------------------------------
@pytest.fixture()
def broker():
    server = BrokerServer(listen="127.0.0.1:0", lease_ttl=5.0)
    server.start()
    yield server
    server.stop()


class TestServerStreams:
    def test_idle_stream_ticks_instead_of_dying(self, broker):
        broker.TICK_S = 0.2
        conn = connect(broker.address, timeout=5.0)
        try:
            send_frame(conn, {"type": "submit", "run": "tick",
                              "policy": policy_to_dict(JobPolicy()),
                              "jobs": [_job("a")]})
            assert recv_frame(conn)["type"] == "submitted"
            # No worker is attached: the stream must tick, not tear down
            # (the old blanket ``except Exception`` ate real errors here).
            assert recv_frame(conn)["type"] == "tick"
            grant = broker.queue.lease("w")
            broker.queue.complete(grant["lease"], {"m": 1.0})
            kinds = []
            while "run-done" not in kinds:
                kinds.append(recv_frame(conn)["type"])
            assert "job-done" in kinds
        finally:
            conn.close()
        assert _wait_for(lambda: not broker.queue.has_run("tick"))

    def test_resubmit_reattaches_and_replays_settled_events(self, broker):
        jobs = [_job("a"), _job("b")]
        submit = {"type": "submit", "run": "re",
                  "policy": policy_to_dict(JobPolicy()), "jobs": jobs}
        conn1 = connect(broker.address, timeout=5.0)
        send_frame(conn1, submit)
        reply = recv_frame(conn1)
        assert reply["type"] == "submitted" and reply["resumed"] is False
        grant = broker.queue.lease("w")
        broker.queue.complete(grant["lease"], {"m": 0.5})
        assert recv_frame(conn1)["key"] == "a"
        conn1.close()  # the client dies mid-run...

        conn2 = connect(broker.address, timeout=5.0)
        try:
            send_frame(conn2, submit)  # ...and comes back, same run id
            reply = recv_frame(conn2)
            assert reply["type"] == "submitted" and reply["resumed"] is True
            replayed = recv_frame(conn2)
            assert replayed["type"] == "job-done" and replayed["key"] == "a"
            assert replayed["metrics"] == {"m": 0.5}
            grant = broker.queue.lease("w")
            broker.queue.complete(grant["lease"], {"m": 1.5})
            events = []
            while not any(e["type"] == "run-done" for e in events):
                events.append(recv_frame(conn2))
            assert any(e.get("key") == "b" for e in events)
        finally:
            conn2.close()
        # Delivered run-done retires the run: no _Run leaks per study.
        assert _wait_for(lambda: not broker.queue.has_run("re"))

    def test_heartbeat_nack_makes_the_worker_abandon(self, broker):
        plan = compile_study("figure1", member_overrides=FIGURE1_TRIMS)
        doomed, clean = plan.jobs[0], plan.jobs[1]
        broker.queue.lease_ttl = 1.5  # heartbeat every ~0.5s
        worker = Worker(broker.address, name="abandoner", poll_s=0.2)
        stop = threading.Event()

        def _run():
            try:
                worker.run(stop_event=stop)
            except (ConnectionError, FrameError, OSError):
                pass

        thread = threading.Thread(target=_run, daemon=True)
        # The doomed job sleeps long enough for a revocation to land
        # mid-attempt, then would return normally — the abandon is what
        # keeps its result from being reported.
        hold = FaultPlan([FaultSpec(match=doomed.key, action="hang",
                                    seconds=2.5, attempts=(1,))])
        try:
            with installed(hold):
                thread.start()
                events = broker.queue.submit("revoked", [_wire(doomed)],
                                             JobPolicy())
                assert _wait_for(
                    lambda: broker.queue.stats()["leases"] == 1)
                broker.queue.cancel("revoked")  # revokes the lease
                done = _drain_until(events, "run-done")
                assert done["completed"] == 0 and done["failed"] == 1
                assert _wait_for(lambda: worker.abandoned == 1, timeout=15.0)
                assert not broker.queue.has_run("revoked")
            # The worker survived the abandon and still serves jobs.
            events = broker.queue.submit("after", [_wire(clean)],
                                         JobPolicy())
            done = _drain_until(events, "job-done")
            assert done["key"] == clean.key
        finally:
            stop.set()


# ----------------------------------------------------------------------
# Server-level journal recovery and the soak loop
# ----------------------------------------------------------------------
class TestServerRecovery:
    def test_journaled_completion_is_replayed_not_re_executed(
            self, tmp_path):
        journal_dir = JournalDir(tmp_path / "journal")
        store = RunStore(tmp_path / "runs")
        plan = compile_study("figure1", member_overrides=FIGURE1_TRIMS)
        crashed = BrokerQueue(journal=journal_dir)
        crashed.submit("crashed", [_wire(job) for job in plan.jobs],
                       JobPolicy())
        grant = crashed.lease("w")
        # No execution produces this value: only the journal can.
        crashed.complete(grant["lease"], {"m": 2.0})

        restarted = BrokerServer(listen="127.0.0.1:0", lease_ttl=5.0,
                                 journal=journal_dir)
        restarted.start()
        stop = threading.Event()
        try:
            assert restarted.recovered == ["crashed"]
            _start_worker_threads(restarted.address, stop, ["after"])
            fresh = DistributedBackend(
                restarted.address, run_id="crashed").execute(
                    plan, on_result=store.put_unit)
            assert sorted(fresh) == sorted(plan.job_keys())
            # The journaled completion reached the client's store as a
            # durable unit-cache hit, byte for byte what was recorded.
            assert fresh[grant["key"]] == {"m": 2.0}
            assert store.get_unit(grant["key"]) == {"m": 2.0}
        finally:
            stop.set()
            restarted.stop()

    def test_soak_twenty_runs_leave_no_queue_state(self, tmp_path):
        journal_dir = tmp_path / "journal"
        server = BrokerServer(listen="127.0.0.1:0", lease_ttl=5.0,
                              journal=JournalDir(journal_dir))
        server.start()
        assert server.queue.stats()["journal"] is True
        plan = compile_study("figure1", member_overrides=FIGURE1_TRIMS)
        stop = threading.Event()
        _start_worker_threads(server.address, stop, ["soak"])
        try:
            for index in range(20):
                failures = {}
                fresh = DistributedBackend(
                    server.address, run_id=f"soak-{index}").execute(
                        plan, policy=JobPolicy(keep_going=True),
                        failures=failures)
                assert len(fresh) == len(plan.jobs) and not failures
            # Twenty runs through an always-on broker: every run was
            # retired (no _Run leak) and every journal file collected.
            # Retirement races the client's run-done receipt; poll.
            assert _wait_for(lambda: server.queue.stats()["runs"] == {})
            assert not list(journal_dir.glob(f"*{SEGMENT_SUFFIX}"))
        finally:
            stop.set()
            server.stop()


# ----------------------------------------------------------------------
# End to end: SIGKILL the broker mid-run, restart, byte-identity
# ----------------------------------------------------------------------
def _spawn_broker(address, journal_dir):
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FAULT_PLAN", None)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.distributed.broker",
         "--listen", address, "--journal", str(journal_dir),
         "--lease-ttl", "5"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    for _ in range(30):
        line = process.stdout.readline()
        if not line:
            break
        if "listening on" in line:
            return process
    process.kill()
    raise AssertionError("broker subprocess never reported listening")


def _start_worker_threads(address, stop, names):
    threads = []
    for name in names:
        worker = Worker(address, name=name, poll_s=0.2)

        def _run(worker=worker):
            try:
                worker.run(stop_event=stop)
            except (ConnectionError, FrameError, OSError):
                pass  # the broker died under us; that is the test

        thread = threading.Thread(target=_run, daemon=True)
        thread.start()
        threads.append(thread)
    return threads


class TestBrokerKillRestart:
    def test_sigkill_restart_is_byte_identical_to_the_golden(
            self, tmp_path):
        plan = compile_study("figure1",
                             member_overrides=STUDY_TRIMS["figure1"])
        address = f"unix:{tmp_path / 'broker.sock'}"
        journal_dir = tmp_path / "journal"
        stop = threading.Event()
        # One mid-plan job sleeps 2s (then succeeds), guaranteeing the
        # run is still open when the broker is killed.
        hold_open = FaultPlan([FaultSpec(match=plan.jobs[2].key,
                                         action="hang", seconds=2.0,
                                         attempts=(1,))])
        broker = _spawn_broker(address, journal_dir)
        try:
            with installed(hold_open):
                _start_worker_threads(address, stop, ["gen1-0", "gen1-1"])
                backend = DistributedBackend(
                    address, run_id="kill-restart", reattach=True,
                    reattach_timeout=120.0)
                first_done = threading.Event()
                outcome = {}

                def _drive():
                    try:
                        outcome["fresh"] = backend.execute(
                            plan,
                            on_result=lambda key, metrics:
                                first_done.set(),
                            policy=JobPolicy(keep_going=True))
                    except BaseException as error:  # noqa: BLE001
                        outcome["error"] = error

                driver = threading.Thread(target=_drive, daemon=True)
                driver.start()
                assert first_done.wait(timeout=120.0)
                assert driver.is_alive(), "run finished before the kill"
                broker.send_signal(signal.SIGKILL)
                broker.wait(timeout=30)

                broker = _spawn_broker(address, journal_dir)  # same journal
                _start_worker_threads(address, stop, ["gen2-0", "gen2-1"])
                driver.join(timeout=240.0)
                assert not driver.is_alive(), "run never completed"
                assert "error" not in outcome, repr(outcome.get("error"))

            results = plan.assemble(outcome["fresh"], failures={})
            golden = GOLDEN_FIGURE1.read_text(encoding="utf-8")
            assert results.to_json() + "\n" == golden
            # run-done was delivered, so the broker retired the run and
            # garbage-collected its journal (the delete races the
            # client's receipt; poll briefly).
            assert _wait_for(
                lambda: not list(journal_dir.glob(f"*{SEGMENT_SUFFIX}")))
        finally:
            stop.set()
            if broker.poll() is None:
                broker.terminate()
                try:
                    broker.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    broker.kill()
